module github.com/shiftsplit/shiftsplit/bench

go 1.22

require github.com/shiftsplit/shiftsplit v0.0.0

replace github.com/shiftsplit/shiftsplit => ../
