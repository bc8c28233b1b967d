module twe/benchmark

go 1.22

require twe v0.0.0

replace twe => ../
