module enviromic/bench

go 1.22

require enviromic v0.0.0

replace enviromic => ../
