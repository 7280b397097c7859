module rnascale/bench

go 1.22

require rnascale v0.0.0

replace rnascale => ../
