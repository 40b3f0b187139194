(* Seeded query-text generators for the workloads.

   The engine only ever sees the texts produced here. Every generator
   draws from its own splitmix64 stream (not the library's PRNG), so a
   change to the engine cannot move the benchmark's inputs. *)

module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.(add (mul (of_int seed) 0x2545F4914F6CDD1DL) 0x1234567L) }

  let next r =
    r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let int r bound = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

  (* uniform in [0, 1) *)
  let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

  let pick r a = a.(int r (Array.length a))

  (* [k] distinct values of [0, n) *)
  let distinct r ~k n =
    let seen = Hashtbl.create k in
    let rec go acc =
      if List.length acc = k then List.rev acc
      else
        let v = int r n in
        if Hashtbl.mem seen v then go acc
        else begin
          Hashtbl.add seen v ();
          go (v :: acc)
        end
    in
    go []
end

(* TPC-H value domains, as the data generator produces them *)
let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nations =
  [|
    "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA"; "FRANCE"; "GERMANY";
    "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN"; "JORDAN"; "KENYA"; "MOROCCO";
    "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA"; "SAUDI ARABIA"; "VIETNAM"; "RUSSIA";
    "UNITED KINGDOM"; "UNITED STATES";
  |]

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]
let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]
let ship_modes = [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |]

let containers =
  [| "SM CASE"; "SM BOX"; "MED BAG"; "MED BOX"; "LG CASE"; "LG BOX"; "JUMBO PACK"; "WRAP JAR" |]

let syllables_1 = [| "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" |]
let syllables_2 = [| "ANODIZED"; "BURNISHED"; "PLATED"; "POLISHED"; "BRUSHED" |]
let syllables_3 = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

let colors =
  [|
    "almond"; "antique"; "aquamarine"; "azure"; "beige"; "bisque"; "black"; "blanched";
    "blue"; "blush"; "brown"; "burlywood"; "chartreuse"; "chiffon"; "chocolate"; "coral";
    "cornflower"; "cream"; "cyan"; "dark"; "deep"; "dim"; "dodger"; "drab"; "firebrick";
    "floral"; "forest"; "frosted"; "gainsboro"; "ghost"; "goldenrod"; "green"; "grey";
    "honeydew"; "hot"; "indian"; "ivory"; "khaki"; "lace"; "lavender"; "lawn"; "lemon";
    "light"; "lime"; "linen"; "magenta"; "maroon"; "medium"; "metallic"; "midnight";
    "mint"; "misty"; "moccasin"; "navajo"; "navy"; "olive"; "orange"; "orchid"; "pale";
    "papaya"; "peach"; "peru"; "pink"; "plum"; "powder"; "puff"; "purple"; "red"; "rose";
    "rosy"; "royal"; "saddle"; "salmon"; "sandy"; "seashell"; "sienna"; "sky"; "slate";
    "smoke"; "snow"; "spring"; "steel"; "tan"; "thistle"; "tomato"; "turquoise"; "violet";
    "wheat"; "white"; "yellow";
  |]

exception Template_changed of string

(* Replace every occurrence of each pattern, simultaneously (a
   replacement is never rescanned). A pattern missing from the text
   means the library's template changed under the benchmark. *)
let subst name text pairs =
  let pairs = Array.of_list pairs in
  let used = Array.make (Array.length pairs) false in
  let b = Buffer.create (String.length text + 64) in
  let n = String.length text in
  let matches i (p, _) = i + String.length p <= n && String.sub text i (String.length p) = p in
  let rec go i =
    if i < n then
      match Array.find_index (matches i) pairs with
      | Some k ->
        used.(k) <- true;
        Buffer.add_string b (snd pairs.(k));
        go (i + String.length (fst pairs.(k)))
      | None ->
        Buffer.add_char b text.[i];
        go (i + 1)
  in
  go 0;
  Array.iteri
    (fun k u ->
      if not u then raise (Template_changed (Printf.sprintf "%s: no %S" name (fst pairs.(k)))))
    used;
  Buffer.contents b

let quote s = "'" ^ s ^ "'"

(* civil date <-> days since 1970-01-01 *)
let days_from_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let date (y, m, d) = Printf.sprintf "date '%04d-%02d-%02d'" y m d

let add_months (y, m) k =
  let t = (y * 12) + (m - 1) + k in
  (t / 12, (t mod 12) + 1)

(* a window of [months] starting on the first of one of [count]
   consecutive months from [first] *)
let window r ~first ~count ~months =
  let y, m = add_months first (Rng.int r count) in
  let y', m' = add_months (y, m) months in
  (date (y, m, 1), date (y', m', 1))

let brand r = Printf.sprintf "Brand#%d%d" (1 + Rng.int r 5) (1 + Rng.int r 5)

let ptype r =
  Printf.sprintf "%s %s %s" (Rng.pick r syllables_1) (Rng.pick r syllables_2)
    (Rng.pick r syllables_3)

let int_list l = "(" ^ String.concat ", " (List.map string_of_int l) ^ ")"

let str_list l = "(" ^ String.concat ", " (List.map quote l) ^ ")"

(* qgen-style substitution parameters of TPC-H query [q] (1-based) *)
let tpch_params r q =
  let sp = Printf.sprintf in
  let limit lo span = sp "limit %d" (lo + Rng.int r span) in
  match q with
  | 1 ->
    let delta = 60 + Rng.int r 61 in
    [ ("date '1998-09-02'", date (civil_from_days (days_from_civil 1998 12 1 - delta))) ]
  | 2 ->
    [
      ("p_size = 15", sp "p_size = %d" (1 + Rng.int r 50));
      ("'%BRASS'", quote ("%" ^ Rng.pick r syllables_3));
      ("'EUROPE'", quote (Rng.pick r regions));
    ]
  | 3 ->
    [
      ("'BUILDING'", quote (Rng.pick r segments));
      ("date '1995-03-15'", date (1995, 3, 1 + Rng.int r 31));
    ]
  | 4 ->
    let a, b = window r ~first:(1993, 1) ~count:58 ~months:3 in
    [ ("date '1993-07-01'", a); ("date '1993-10-01'", b) ]
  | 5 ->
    let a, b = window r ~first:(1992, 1) ~count:84 ~months:12 in
    [ ("'ASIA'", quote (Rng.pick r regions)); ("date '1994-01-01'", a); ("date '1995-01-01'", b) ]
  | 6 ->
    let a, b = window r ~first:(1992, 1) ~count:84 ~months:12 in
    let d = 2 + Rng.int r 8 in
    [
      ("date '1994-01-01'", a);
      ("date '1995-01-01'", b);
      ("between 0.05 and 0.07", sp "between 0.%02d and 0.%02d" (d - 1) (d + 1));
      ("l_quantity < 24", sp "l_quantity < %d" (24 + Rng.int r 2));
    ]
  | 7 ->
    let pair = List.map (fun i -> nations.(i)) (Rng.distinct r ~k:2 25) in
    [ ("('FRANCE', 'GERMANY')", str_list pair) ]
  | 8 ->
    [ ("'AMERICA'", quote (Rng.pick r regions)); ("'ECONOMY ANODIZED STEEL'", quote (ptype r)) ]
  | 9 -> [ ("'%green%'", quote ("%" ^ Rng.pick r colors ^ "%")) ]
  | 10 ->
    let a, b = window r ~first:(1993, 1) ~count:60 ~months:3 in
    [ ("date '1993-10-01'", a); ("date '1994-01-01'", b) ]
  | 11 ->
    [
      ("'GERMANY'", quote (Rng.pick r nations));
      ("> 7000000.00", sp "> %d00000.00" (60 + Rng.int r 21));
    ]
  | 12 ->
    let a, b = window r ~first:(1992, 1) ~count:84 ~months:12 in
    let modes = List.map (fun i -> ship_modes.(i)) (Rng.distinct r ~k:2 7) in
    [ ("('MAIL', 'SHIP')", str_list modes); ("date '1994-01-01'", a); ("date '1995-01-01'", b) ]
  | 13 -> [ ("'1-URGENT'", quote (Rng.pick r priorities)); ("limit 50", limit 20 61) ]
  | 14 ->
    let a, b = window r ~first:(1993, 1) ~count:60 ~months:1 in
    [ ("date '1995-09-01'", a); ("date '1995-10-01'", b) ]
  | 15 ->
    let a, b = window r ~first:(1993, 1) ~count:58 ~months:3 in
    [ ("date '1996-01-01'", a); ("date '1996-04-01'", b) ]
  | 16 ->
    let sizes = List.map (fun i -> i + 1) (Rng.distinct r ~k:8 50) in
    [ ("'Brand#45'", quote (brand r)); ("(49, 14, 23, 45, 19, 3, 36, 9)", int_list sizes) ]
  | 17 -> [ ("'Brand#23'", quote (brand r)); ("'MED BOX'", quote (Rng.pick r containers)) ]
  | 18 -> [ ("> 300", sp "> %d" (280 + Rng.int r 41)); ("limit 100", limit 50 101) ]
  | 19 -> [ ("'Brand#12'", quote (brand r)); ("'Brand#23'", quote (brand r)) ]
  | 20 ->
    [ ("'forest%'", quote (Rng.pick r colors ^ "%")); ("'CANADA'", quote (Rng.pick r nations)) ]
  | 21 -> [ ("'SAUDI ARABIA'", quote (Rng.pick r nations)); ("limit 100", limit 50 101) ]
  | 22 -> [ ("(13, 31, 23, 29, 30, 18, 17)", int_list (Rng.distinct r ~k:7 35)) ]
  | _ -> invalid_arg "tpch_params"

(* pgAdmin-style catalog lookups; meta2 has no literal, so its column
   alias carries the variation *)
let meta_params r = function
  | 0 -> [ ("n_nationkey = 7", Printf.sprintf "n_nationkey = %d" (Rng.int r 25)) ]
  | 1 -> [ ("as nations", Printf.sprintf "as nations_%d" (Rng.int r 100)) ]
  | 2 -> [ ("s_suppkey < 50", Printf.sprintf "s_suppkey < %d" (1 + Rng.int r 100)) ]
  | 3 -> [ ("s_suppkey = 42", Printf.sprintf "s_suppkey = %d" (Rng.int r 100)) ]
  | 4 ->
    [
      ("'EUROPE'", quote (Rng.pick r regions));
      ("s_suppkey < 100", Printf.sprintf "s_suppkey < %d" (1 + Rng.int r 100));
    ]
  | 5 -> [ ("s_suppkey < 25", Printf.sprintf "s_suppkey < %d" (1 + Rng.int r 100)) ]
  | _ -> invalid_arg "meta_params"

(* A workload's text source: template names, a generator, and whether
   every text must be new to the process (cold runs). *)
type t = {
  names : string array;
  rng : Rng.t;
  make : Rng.t -> int -> string;
  unique : bool;
  seen : (string, unit) Hashtbl.t;
  digest : Buffer.t;  (** every text handed out, in order *)
}

let create ~seed ~names ~make ~unique =
  {
    names;
    rng = Rng.make seed;
    make;
    unique;
    seen = Hashtbl.create 1024;
    digest = Buffer.create 4096;
  }

let tpch ~seed =
  let templates = Array.of_list Aeq_workload.Queries.tpch in
  create ~seed ~unique:true ~names:(Array.map fst templates)
    ~make:(fun r i ->
      let name, sql = templates.(i) in
      subst name sql (tpch_params r (i + 1)))

let meta ~seed =
  let templates = Array.of_list Aeq_workload.Queries.metadata in
  create ~seed ~unique:false ~names:(Array.map fst templates)
    ~make:(fun r i ->
      let name, sql = templates.(i) in
      subst name sql (meta_params r i))

let n_templates g = Array.length g.names

let next g i =
  let rec draw tries =
    let text = g.make g.rng i in
    if g.unique && Hashtbl.mem g.seen text then
      if tries > 200 then failwith ("parameter space exhausted for " ^ g.names.(i))
      else draw (tries + 1)
    else text
  in
  let text = draw 0 in
  Hashtbl.replace g.seen text ();
  Buffer.add_string g.digest text;
  Buffer.add_char g.digest '\n';
  text

let texts_hash g = Digest.to_hex (Digest.string (Buffer.contents g.digest))
let distinct g = Hashtbl.length g.seen
