module dbtf/benchmark

go 1.22

require dbtf v0.0.0

replace dbtf => ../
