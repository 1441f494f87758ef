module mddm/bench

go 1.22

require mddm v0.0.0

replace mddm => ../
