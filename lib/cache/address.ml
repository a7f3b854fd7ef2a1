let set_index cfg line = line mod Config.sets cfg
