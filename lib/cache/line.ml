type t = {
  valid : bool;
  tag : int;
  owner : int;
  locked : bool;
  last_use : int;
  fill_seq : int;
  aux : int;
}
