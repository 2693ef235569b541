module livenas/benchmark

go 1.22

require livenas v0.0.0

replace livenas => ../
