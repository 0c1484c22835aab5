module github.com/fix-index/fix/bench

go 1.22

require github.com/fix-index/fix v0.0.0

replace github.com/fix-index/fix => ../
