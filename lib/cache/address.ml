let set_index cfg line = line mod Config.sets cfg
let tag cfg line = line / Config.sets cfg
