let used x = x + 1
let test_only x = x * 2
let unused = 0
let scaled ?(factor = 1) x = factor * x
