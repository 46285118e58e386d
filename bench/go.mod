module quamax/bench

go 1.24

require quamax v0.0.0

replace quamax => ../
