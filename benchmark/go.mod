module ftnet/benchmark

go 1.24

require ftnet v0.0.0

replace ftnet => ../
