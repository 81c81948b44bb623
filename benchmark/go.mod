module joinopt/benchmark

go 1.24

require joinopt v0.0.0

replace joinopt => ../
