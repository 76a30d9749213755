type 'f t = { mutable items : 'f array; mutable len : int }

let create () = { items = [||]; len = 0 }

let add t f =
  if t.len = Array.length t.items then begin
    let grown = Array.make (max 4 (2 * t.len)) f in
    Array.blit t.items 0 grown 0 t.len;
    t.items <- grown
  end;
  t.items.(t.len) <- f;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f t.items.(i)
  done

