module camsim/bench

go 1.22

require camsim v0.0.0

replace camsim => ../
