(* Extended page tables: the second-dimension translation (guest-physical →
   host-physical) a hypervisor maintains per VM. Implemented as a real
   4-level radix tree over 9-bit indices, with per-entry permissions and a
   "misconfigured" marker.

   The misconfig marker reproduces how KVM implements virtio doorbells for
   MMIO regions: the region is deliberately left misconfigured so every
   guest store raises EPT_MISCONFIG — the exit reason the paper's profiles
   show dominating L0's time under I/O load (§6.2, §6.3).

   A leaf table is a flat 512-word [int array], one word per page, as in a
   hardware EPT: mapping a page stores an int and allocates nothing. *)

type perm = { read : bool; write : bool; exec : bool }

let rwx = { read = true; write = true; exec = true }
let ro = { read = true; write = false; exec = false }

type access = Read | Write | Exec

type entry =
  | Page of { hpa : Addr.Hpa.t; perm : perm }
  | Misconfig of { tag : string } (* deliberate misconfiguration (MMIO) *)

(* Levels 3..1 are directories; a level-1 slot holds a leaf table. *)
type node = Empty | Dir of node array | Leaves of int array

type fault =
  | Violation of { gpa : Addr.Gpa.t; access : access }
  | Misconfiguration of { gpa : Addr.Gpa.t; tag : string }

type t = {
  root : node array;
  mutable tags : string array; (* misconfig tags, by index *)
  mutable mapped_pages : int;
  mutable invalidations : int; (* INVEPT count *)
}

let levels = 4
let bits_per_level = 9
let fanout = 1 lsl bits_per_level

(* Leaf-table word: 0 = not present; bit 0 = page present, bit 1 =
   misconfigured, bits 2-4 = read/write/exec; above [payload_shift] the
   host frame number (a page) or the index into [tags] (a misconfig). *)
let present = 1
let misconfig = 2
let perm_shift = 2
let payload_shift = 5

let perm_bits p =
  (if p.read then 1 else 0) lor (if p.write then 2 else 0)
  lor if p.exec then 4 else 0

let perm_of_bits =
  Array.init 8 (fun b ->
      { read = b land 1 <> 0; write = b land 2 <> 0; exec = b land 4 <> 0 })

let page_word ~hpa ~perm =
  ((Addr.Hpa.to_int hpa lsr Addr.page_shift) lsl payload_shift)
  lor (perm_bits perm lsl perm_shift)
  lor present

let create () =
  { root = Array.make fanout Empty; tags = [||]; mapped_pages = 0;
    invalidations = 0 }

let index_at page level =
  (* level 3 = root, level 0 = leaf table *)
  (page lsr (bits_per_level * level)) land (fanout - 1)

(* The leaf table covering [page], built on the way down if missing. *)
let rec leaf_table slots page level =
  let idx = index_at page level in
  match slots.(idx) with
  | Leaves l -> l
  | Dir d -> leaf_table d page (level - 1)
  | Empty ->
      if level = 1 then begin
        let l = Array.make fanout 0 in
        slots.(idx) <- Leaves l;
        l
      end
      else begin
        let d = Array.make fanout Empty in
        slots.(idx) <- Dir d;
        leaf_table d page (level - 1)
      end

(* The leaf table covering [page], or [no_leaves] (all zero) if none. *)
let no_leaves = Array.make fanout 0

let rec find_leaf_table slots page level =
  match slots.(index_at page level) with
  | Leaves l -> l
  | Dir d -> find_leaf_table d page (level - 1)
  | Empty -> no_leaves

(* Store [word] at [idx], keeping [mapped_pages] an exact count of present
   pages. *)
let set t leaves idx word =
  let was = leaves.(idx) land present and now = word land present in
  t.mapped_pages <- t.mapped_pages + now - was;
  leaves.(idx) <- word

let map t ~gpa ~hpa ~perm =
  if not (Addr.Gpa.is_page_aligned gpa && Addr.Hpa.is_page_aligned hpa) then
    invalid_arg "Ept.map: unaligned";
  let page = Addr.Gpa.page_of gpa in
  set t (leaf_table t.root page (levels - 1)) (index_at page 0) (page_word ~hpa ~perm)

let tag_index t tag =
  let n = Array.length t.tags in
  let rec find i =
    if i = n then begin
      t.tags <- Array.append t.tags [| tag |];
      n
    end
    else if String.equal t.tags.(i) tag then i
    else find (i + 1)
  in
  find 0

let mark_misconfig t ~gpa ~tag =
  if not (Addr.Gpa.is_page_aligned gpa) then invalid_arg "Ept.mark_misconfig";
  let page = Addr.Gpa.page_of gpa in
  set t (leaf_table t.root page (levels - 1)) (index_at page 0)
    ((tag_index t tag lsl payload_shift) lor misconfig)

let word t gpa =
  let page = Addr.Gpa.page_of gpa in
  (find_leaf_table t.root page (levels - 1)).(index_at page 0)

let lookup t gpa =
  let w = word t gpa in
  if w land present <> 0 then
    Some
      (Page
         { hpa = Addr.Hpa.of_int ((w lsr payload_shift) lsl Addr.page_shift);
           perm = perm_of_bits.((w lsr perm_shift) land 7) })
  else if w land misconfig <> 0 then
    Some (Misconfig { tag = t.tags.(w lsr payload_shift) })
  else None

let access_bit = function Read -> 1 | Write -> 2 | Exec -> 4

(* Translate a guest-physical address for a given access, returning either
   the host-physical address or the architectural fault. *)
let translate t ~gpa ~access =
  let w = word t gpa in
  if w land present <> 0 then
    if (w lsr perm_shift) land access_bit access <> 0 then
      Ok
        (Addr.Hpa.of_int
           (((w lsr payload_shift) lsl Addr.page_shift) lor Addr.Gpa.offset gpa))
    else Error (Violation { gpa; access })
  else if w land misconfig <> 0 then
    Error (Misconfiguration { gpa; tag = t.tags.(w lsr payload_shift) })
  else Error (Violation { gpa; access })

let unmap t ~gpa =
  let page = Addr.Gpa.page_of gpa in
  let leaves = find_leaf_table t.root page (levels - 1) in
  if leaves != no_leaves then set t leaves (index_at page 0) 0

let invept t = t.invalidations <- t.invalidations + 1
let invalidations t = t.invalidations
let mapped_pages t = t.mapped_pages

(* Map a contiguous range: one walk per leaf table, then one loop filling
   its words. *)
let map_range t ~gpa ~hpa ~len ~perm =
  if not (Addr.Gpa.is_page_aligned gpa && Addr.Hpa.is_page_aligned hpa) then
    invalid_arg "Ept.map_range: unaligned";
  let pages = (len + Addr.page_size - 1) / Addr.page_size in
  let first = Addr.Gpa.page_of gpa in
  let word0 = page_word ~hpa ~perm in
  let rec fill i =
    if i < pages then begin
      let page = first + i in
      let leaves = leaf_table t.root page (levels - 1) in
      let idx = index_at page 0 in
      let n = Stdlib.min (pages - i) (fanout - idx) in
      for j = 0 to n - 1 do
        set t leaves (idx + j) (word0 + ((i + j) lsl payload_shift))
      done;
      fill (i + n)
    end
  in
  fill 0

let pp_fault ppf = function
  | Violation { gpa; access } ->
      Fmt.pf ppf "EPT violation at %a (%s)" Addr.Gpa.pp gpa
        (match access with Read -> "read" | Write -> "write" | Exec -> "exec")
  | Misconfiguration { gpa; tag } ->
      Fmt.pf ppf "EPT misconfig at %a (%s)" Addr.Gpa.pp gpa tag
