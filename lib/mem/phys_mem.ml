(* Sparse host physical memory with byte-level contents. Pages materialize
   on first touch. Real contents matter because virtqueue rings and the SW
   SVt command channels live in this memory and are read/written by both
   guests and hypervisors. *)

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  size_limit : int; (* bytes; 0 = unlimited *)
}

let create ?(size_limit = 0) () = { pages = Hashtbl.create 1024; size_limit }

let page_for t hpa =
  let pn = Addr.Hpa.page_of hpa in
  if t.size_limit > 0 && Addr.Hpa.to_int hpa >= t.size_limit then
    invalid_arg "Phys_mem: address beyond memory size";
  match Hashtbl.find_opt t.pages pn with
  | Some p -> p
  | None ->
      let p = Bytes.make Addr.page_size '\000' in
      Hashtbl.add t.pages pn p;
      p

let read_u8 t hpa =
  let p = page_for t hpa in
  Char.code (Bytes.get p (Addr.Hpa.offset hpa))

let write_u8 t hpa v =
  let p = page_for t hpa in
  Bytes.set p (Addr.Hpa.offset hpa) (Char.chr (v land 0xFF))

(* Bulk copies go one chunk at a time: each chunk stays in one page and
   below [size_limit], so it costs one [page_for] and one blit. A copy
   that crosses the limit moves exactly the in-limit bytes, then the next
   chunk's [page_for] raises. *)
let copy t hpa buf ~pos ~len ~to_page =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Phys_mem: buffer range";
  let rec go done_ =
    if done_ < len then begin
      let a = Addr.Hpa.add hpa done_ in
      let page = page_for t a in
      let off = Addr.Hpa.offset a in
      let n = Stdlib.min (len - done_) (Addr.page_size - off) in
      let n =
        if t.size_limit > 0 then
          Stdlib.min n (t.size_limit - Addr.Hpa.to_int a)
        else n
      in
      if to_page then Bytes.blit buf (pos + done_) page off n
      else Bytes.blit page off buf (pos + done_) n;
      go (done_ + n)
    end
  in
  go 0

let read_into t hpa buf ~pos ~len = copy t hpa buf ~pos ~len ~to_page:false
let write_from t hpa buf ~pos ~len = copy t hpa buf ~pos ~len ~to_page:true

let read_bytes t hpa len =
  let out = Bytes.create len in
  read_into t hpa out ~pos:0 ~len;
  out

let write_bytes t hpa data =
  write_from t hpa data ~pos:0 ~len:(Bytes.length data)

(* A [w]-byte scalar takes the fast path when it lies in one page and
   below [size_limit]; otherwise it goes through the chunked copy, so it
   touches only its own bytes. *)
let fits t hpa w =
  Addr.Hpa.offset hpa + w <= Addr.page_size
  && (t.size_limit = 0 || Addr.Hpa.to_int hpa + w <= t.size_limit)

let read_u64 t hpa =
  if fits t hpa 8 then Bytes.get_int64_le (page_for t hpa) (Addr.Hpa.offset hpa)
  else Bytes.get_int64_le (read_bytes t hpa 8) 0

let write_u64 t hpa v =
  if fits t hpa 8 then
    Bytes.set_int64_le (page_for t hpa) (Addr.Hpa.offset hpa) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t hpa b
  end

let read_u32 t hpa =
  if fits t hpa 4 then
    Int32.to_int (Bytes.get_int32_le (page_for t hpa) (Addr.Hpa.offset hpa))
    land 0xFFFF_FFFF
  else Int32.to_int (Bytes.get_int32_le (read_bytes t hpa 4) 0) land 0xFFFF_FFFF

let write_u32 t hpa v =
  if fits t hpa 4 then
    Bytes.set_int32_le (page_for t hpa) (Addr.Hpa.offset hpa) (Int32.of_int v)
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write_bytes t hpa b
  end

let read_u16 t hpa =
  if fits t hpa 2 then
    Bytes.get_uint16_le (page_for t hpa) (Addr.Hpa.offset hpa)
  else Bytes.get_uint16_le (read_bytes t hpa 2) 0

let write_u16 t hpa v =
  if fits t hpa 2 then
    Bytes.set_uint16_le (page_for t hpa) (Addr.Hpa.offset hpa) (v land 0xFFFF)
  else begin
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 (v land 0xFFFF);
    write_bytes t hpa b
  end

let resident_pages t = Hashtbl.length t.pages
