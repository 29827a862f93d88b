let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else begin
    (* [-n] overflows for [min_int]: negate all but the last digit. *)
    Buffer.add_char buf '-';
    if n <= -10 then add_digits buf (-(n / 10));
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  end
