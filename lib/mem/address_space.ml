(* A guest's physical address-space layout plus its backing: which GPA
   ranges are RAM (EPT-mapped to host frames) and which are MMIO regions
   (deliberately EPT-misconfigured so stores trap — virtio doorbells).

   Also provides guest-physical accessors that go through the EPT, which
   is how hypervisor and device code touch guest memory (vrings, command
   channels) exactly as real DMA/copy paths would. *)

type region = {
  name : string;
  base : Addr.Gpa.t;
  len : int;
  kind : [ `Ram | `Mmio ];
}

type t = {
  ept : Ept.t;
  mem : Phys_mem.t; (* host memory backing RAM regions *)
  mutable regions : region list;
  alloc : Frame_alloc.t;
  mutable alloc_cursor : Addr.Gpa.t; (* next free GPA for dynamic regions *)
}

(* Back [pages] fresh guest pages at the cursor with one run of host
   frames, record them as a RAM region and return their base. *)
let add_ram t ~name pages =
  let base = t.alloc_cursor in
  let hpa = Frame_alloc.alloc_run t.alloc pages in
  Ept.map_range t.ept ~gpa:base ~hpa ~len:(pages * Addr.page_size) ~perm:Ept.rwx;
  t.alloc_cursor <- Addr.Gpa.add base (pages * Addr.page_size);
  t.regions <- { name; base; len = pages * Addr.page_size; kind = `Ram } :: t.regions;
  base

let create ~mem ~alloc ~ram_bytes =
  if ram_bytes <= 0 then invalid_arg "Address_space.create";
  let t =
    { ept = Ept.create (); mem; regions = []; alloc;
      alloc_cursor = Addr.Gpa.of_int 0 }
  in
  (* Back all of guest RAM with host frames up front (the paper's VMs are
     configured to avoid swapping). *)
  ignore (add_ram t ~name:"ram" ((ram_bytes + Addr.page_size - 1) / Addr.page_size));
  t

let ept t = t.ept
let regions t = t.regions

(* Carve a fresh MMIO region (device BAR): the EPT entries are marked
   misconfigured so guest accesses exit with EPT_MISCONFIG. *)
let add_mmio_region t ~name ~len =
  let base = t.alloc_cursor in
  let pages = (len + Addr.page_size - 1) / Addr.page_size in
  for i = 0 to pages - 1 do
    Ept.mark_misconfig t.ept
      ~gpa:(Addr.Gpa.add base (i * Addr.page_size))
      ~tag:name
  done;
  t.alloc_cursor <- Addr.Gpa.add base (pages * Addr.page_size);
  t.regions <- { name; base; len = pages * Addr.page_size; kind = `Mmio } :: t.regions;
  base

let region_of_gpa t gpa =
  List.find_opt
    (fun r ->
      Addr.Gpa.to_int gpa >= Addr.Gpa.to_int r.base
      && Addr.Gpa.to_int gpa < Addr.Gpa.to_int r.base + r.len)
    t.regions

let translate t ~gpa ~access = Ept.translate t.ept ~gpa ~access

(* Guest-physical accessors through the EPT. Raise on faults: callers that
   model faulting paths use [translate] directly. *)
let hpa_exn t gpa access =
  match translate t ~gpa ~access with
  | Ok hpa -> hpa
  | Error f -> failwith (Fmt.str "%a" Ept.pp_fault f)

(* Guest memory is copied one guest page at a time, straight between the
   caller's buffer and the backing frame: each page is translated (and
   faults) on its own, since adjacent guest pages need not sit in
   adjacent frames. *)
let copy t gpa buf ~len ~access =
  let rec go done_ =
    if done_ < len then begin
      let gpa' = Addr.Gpa.add gpa done_ in
      let n = Stdlib.min (len - done_) (Addr.page_size - Addr.Gpa.offset gpa') in
      let hpa = hpa_exn t gpa' access in
      (match access with
      | Ept.Write -> Phys_mem.write_from t.mem hpa buf ~pos:done_ ~len:n
      | Ept.Read | Ept.Exec -> Phys_mem.read_into t.mem hpa buf ~pos:done_ ~len:n);
      go (done_ + n)
    end
  in
  go 0

let read_bytes t gpa len =
  let out = Bytes.create len in
  copy t gpa out ~len ~access:Ept.Read;
  out

let write_bytes t gpa data =
  copy t gpa data ~len:(Bytes.length data) ~access:Ept.Write

(* Scalars inside one guest page translate once; one that straddles a
   guest page boundary goes through the page-wise copy. *)
let in_page gpa w = Addr.Gpa.offset gpa + w <= Addr.page_size

let read_u64 t gpa =
  if in_page gpa 8 then Phys_mem.read_u64 t.mem (hpa_exn t gpa Ept.Read)
  else Bytes.get_int64_le (read_bytes t gpa 8) 0

let write_u64 t gpa v =
  if in_page gpa 8 then Phys_mem.write_u64 t.mem (hpa_exn t gpa Ept.Write) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t gpa b
  end

let read_u32 t gpa =
  if in_page gpa 4 then Phys_mem.read_u32 t.mem (hpa_exn t gpa Ept.Read)
  else Int32.to_int (Bytes.get_int32_le (read_bytes t gpa 4) 0) land 0xFFFF_FFFF

let write_u32 t gpa v =
  if in_page gpa 4 then Phys_mem.write_u32 t.mem (hpa_exn t gpa Ept.Write) v
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write_bytes t gpa b
  end

let read_u16 t gpa =
  if in_page gpa 2 then Phys_mem.read_u16 t.mem (hpa_exn t gpa Ept.Read)
  else Bytes.get_uint16_le (read_bytes t gpa 2) 0

let write_u16 t gpa v =
  if in_page gpa 2 then Phys_mem.write_u16 t.mem (hpa_exn t gpa Ept.Write) v
  else begin
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 (v land 0xFFFF);
    write_bytes t gpa b
  end

let read_u8 t gpa = Phys_mem.read_u8 t.mem (hpa_exn t gpa Ept.Read)
let write_u8 t gpa v = Phys_mem.write_u8 t.mem (hpa_exn t gpa Ept.Write) v

(* Allocate fresh, already-mapped guest pages (for rings, buffers). *)
let alloc_guest_pages t n = add_ram t ~name:"alloc" n
