module gls/bench

go 1.22

require gls v0.0.0

replace gls => ../
