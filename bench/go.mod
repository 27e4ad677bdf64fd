module maxembed/bench

go 1.22

require maxembed v0.0.0

replace maxembed => ../
