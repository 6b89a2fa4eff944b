module secndp/benchmark

go 1.22

require secndp v0.0.0

replace secndp => ../
