module cormi/bench

go 1.22

require cormi v0.0.0

replace cormi => ../
