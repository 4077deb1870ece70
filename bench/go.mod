module policyflow/bench

go 1.22

require policyflow v0.0.0

replace policyflow => ../
