module flexile/bench

go 1.22

require flexile v0.0.0

replace flexile => ../
