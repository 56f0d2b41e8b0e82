module github.com/fastrepro/fast/bench

go 1.22

require github.com/fastrepro/fast v0.0.0

replace github.com/fastrepro/fast => ../
