let () = print_int (Horse_demo.Demo.scaled (Horse_demo.Consumer.twice 1))
