let twice x = Demo.used (Demo.used x)
