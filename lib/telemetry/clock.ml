let source = ref Unix.gettimeofday
let now () = !source ()

let with_source src f =
  let prev = !source in
  source := src;
  Fun.protect ~finally:(fun () -> source := prev) f
