module retrograde/bench

go 1.24

require retrograde v0.0.0

replace retrograde => ../
