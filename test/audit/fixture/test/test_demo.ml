let () =
  assert (Horse_demo.Demo.test_only 2 = 4);
  assert (Horse_demo.Demo.scaled ~factor:3 1 = 3)
