// The served-query benchmark is a module of its own so that building,
// vetting and testing the flat module never compiles it; the path
// prefix keeps flat's internal packages importable.
module flat/benchmark

go 1.23

require flat v0.0.0

replace flat => ../
