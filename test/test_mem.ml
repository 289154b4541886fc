(* Tests for the memory substrate: typed addresses, sparse physical
   memory, the frame allocator, the 4-level EPT (mapping, permissions,
   misconfiguration, invalidation) and the guest address space. *)

module Addr = Svt_mem.Addr
module Phys_mem = Svt_mem.Phys_mem
module Frame_alloc = Svt_mem.Frame_alloc
module Ept = Svt_mem.Ept
module Aspace = Svt_mem.Address_space

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* --- Addr ---------------------------------------------------------------- *)

let test_addr_pages () =
  let a = Addr.Gpa.of_int 0x2345 in
  checki "page" 2 (Addr.Gpa.page_of a);
  checki "offset" 0x345 (Addr.Gpa.offset a);
  checkb "aligned check" false (Addr.Gpa.is_page_aligned a);
  checki "align down" 0x2000 (Addr.Gpa.to_int (Addr.Gpa.align_down a))

let test_addr_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "gpa: negative address")
    (fun () -> ignore (Addr.Gpa.of_int (-1)))

(* --- Phys_mem ------------------------------------------------------------ *)

let test_phys_mem_rw_widths () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int 0x1000 in
  Phys_mem.write_u8 m a 0xAB;
  checki "u8" 0xAB (Phys_mem.read_u8 m a);
  Phys_mem.write_u16 m (Addr.Hpa.add a 2) 0xBEEF;
  checki "u16" 0xBEEF (Phys_mem.read_u16 m (Addr.Hpa.add a 2));
  Phys_mem.write_u32 m (Addr.Hpa.add a 4) 0xDEAD10CC;
  checki "u32" 0xDEAD10CC (Phys_mem.read_u32 m (Addr.Hpa.add a 4));
  Phys_mem.write_u64 m (Addr.Hpa.add a 8) 0x0123456789ABCDEFL;
  check64 "u64" 0x0123456789ABCDEFL (Phys_mem.read_u64 m (Addr.Hpa.add a 8))

let test_phys_mem_page_crossing () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int (0x2000 - 4) in
  Phys_mem.write_u64 m a 0x1122334455667788L;
  check64 "crosses page" 0x1122334455667788L (Phys_mem.read_u64 m a);
  let a = Addr.Hpa.of_int (0x3000 - 1) in
  Phys_mem.write_u16 m a 0xBEEF;
  checki "u16 crosses page" 0xBEEF (Phys_mem.read_u16 m a);
  checki "u16 low byte" 0xEF (Phys_mem.read_u8 m a);
  let a = Addr.Hpa.of_int (0x4000 - 2) in
  Phys_mem.write_u32 m a 0xDEAD10CC;
  checki "u32 crosses page" 0xDEAD10CC (Phys_mem.read_u32 m a);
  checki "u32 high byte" 0xDE (Phys_mem.read_u8 m (Addr.Hpa.add a 3))

let test_phys_mem_bytes_roundtrip () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int 0x3F00 in
  let data = Bytes.of_string "the quick brown fox crosses a page boundary!" in
  Phys_mem.write_bytes m a data;
  checkb "round trip" true (Phys_mem.read_bytes m a (Bytes.length data) = data)

(* A scalar at a page's last bytes touches only its own page. *)
let test_phys_mem_u32_own_bytes () =
  let m = Phys_mem.create () in
  let a = Addr.Hpa.of_int 4092 in
  checki "zero" 0 (Phys_mem.read_u32 m a);
  checki "one page materialized" 1 (Phys_mem.resident_pages m);
  let m = Phys_mem.create ~size_limit:4096 () in
  Phys_mem.write_u32 m a 0xCAFEF00D;
  checki "in-range read below limit" 0xCAFEF00D (Phys_mem.read_u32 m a)

let test_phys_mem_sparse () =
  let m = Phys_mem.create () in
  checki "untouched" 0 (Phys_mem.resident_pages m);
  ignore (Phys_mem.read_u8 m (Addr.Hpa.of_int 0x5000));
  checki "materialized on touch" 1 (Phys_mem.resident_pages m);
  checki "zero fill" 0 (Phys_mem.read_u8 m (Addr.Hpa.of_int 0x5001))

(* --- Frame_alloc ---------------------------------------------------------- *)

let test_frame_alloc_distinct_aligned () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(64 * 4096) in
  let f1 = Frame_alloc.alloc a and f2 = Frame_alloc.alloc a in
  checkb "aligned" true (Addr.Hpa.is_page_aligned f1);
  checkb "distinct" true (f1 <> f2);
  checki "allocated" 2 (Frame_alloc.allocated a)

let test_frame_alloc_free_reuse () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(4 * 4096) in
  let f1 = Frame_alloc.alloc a in
  Frame_alloc.free a f1;
  let f2 = Frame_alloc.alloc a in
  checkb "reused" true (Addr.Hpa.equal f1 f2)

let test_frame_alloc_exhaustion () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(2 * 4096) in
  ignore (Frame_alloc.alloc a);
  ignore (Frame_alloc.alloc a);
  Alcotest.check_raises "oom" (Failure "Frame_alloc: out of memory") (fun () ->
      ignore (Frame_alloc.alloc a))

let frame h = Addr.Hpa.to_int h / 4096

let test_frame_alloc_run_contiguous () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(64 * 4096) in
  let f0 = Frame_alloc.alloc a in
  (* a freed frame is not part of a run: runs come from fresh frames *)
  Frame_alloc.free a f0;
  let run = Frame_alloc.alloc_run a 5 in
  checki "run starts after the last fresh frame" (frame f0 + 1) (frame run);
  checki "allocated" 5 (Frame_alloc.allocated a);
  checki "next alloc reuses the freed frame" (frame f0) (frame (Frame_alloc.alloc a));
  checki "next fresh frame follows the run" (frame run + 5)
    (frame (Frame_alloc.alloc a));
  (* guest pages backed by one run sit in consecutive frames *)
  let alloc = Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
  let sp = Aspace.create ~mem:(Phys_mem.create ()) ~alloc ~ram_bytes:(3 * 4096) in
  let g = Aspace.alloc_guest_pages sp 3 in
  let hpa_of i =
    match Aspace.translate sp ~gpa:(Addr.Gpa.add g (i * 4096)) ~access:Ept.Read with
    | Ok h -> frame h
    | Error _ -> Alcotest.fail "allocated page must map"
  in
  checki "ram then pages, one frame apart" ((1 lsl 30) / 4096 + 3) (hpa_of 0);
  checki "second page" (hpa_of 0 + 1) (hpa_of 1);
  checki "third page" (hpa_of 0 + 2) (hpa_of 2)

let test_frame_alloc_run_exhaustion () =
  let a = Frame_alloc.create ~base:0x10000 ~size_bytes:(4 * 4096) in
  let f0 = Frame_alloc.alloc a in
  Alcotest.check_raises "oom" (Failure "Frame_alloc: out of memory") (fun () ->
      ignore (Frame_alloc.alloc_run a 4));
  checki "allocated unchanged" 1 (Frame_alloc.allocated a);
  checki "remaining unchanged" 3 (Frame_alloc.remaining a);
  checki "the rest still fits in one run" (frame f0 + 1)
    (frame (Frame_alloc.alloc_run a 3))

(* --- EPT ------------------------------------------------------------------ *)

let gpa = Addr.Gpa.of_int
let hpa = Addr.Hpa.of_int

let test_ept_map_translate () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.rwx;
  (match Ept.translate e ~gpa:(gpa 0x4123) ~access:Ept.Read with
  | Ok h -> checki "offset preserved" 0x88123 (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "should translate");
  checki "mapped count" 1 (Ept.mapped_pages e)

let test_ept_violation_unmapped () =
  let e = Ept.create () in
  match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Read with
  | Error (Ept.Violation _) -> ()
  | _ -> Alcotest.fail "expected violation"

let test_ept_write_protection () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.ro;
  (match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read allowed");
  match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Write with
  | Error (Ept.Violation _) -> ()
  | _ -> Alcotest.fail "write must fault"

let test_ept_misconfig_marker () =
  let e = Ept.create () in
  Ept.mark_misconfig e ~gpa:(gpa 0x6000) ~tag:"virtio-doorbell";
  match Ept.translate e ~gpa:(gpa 0x6010) ~access:Ept.Write with
  | Error (Ept.Misconfiguration { tag; _ }) ->
      Alcotest.(check string) "tag" "virtio-doorbell" tag
  | _ -> Alcotest.fail "expected misconfig"

let test_ept_unmap () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.rwx;
  Ept.unmap e ~gpa:(gpa 0x4000);
  checki "count back to zero" 0 (Ept.mapped_pages e);
  match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Read with
  | Error (Ept.Violation _) -> ()
  | _ -> Alcotest.fail "unmapped must fault"

(* [mapped_pages] counts present pages exactly: a misconfig marker is not
   a page, and remapping a present page does not count it twice. *)
let test_ept_mapped_pages_misconfig () =
  let e = Ept.create () in
  Ept.mark_misconfig e ~gpa:(gpa 0x6000) ~tag:"doorbell";
  checki "marker is not a page" 0 (Ept.mapped_pages e);
  Ept.unmap e ~gpa:(gpa 0x6000);
  checki "unmapping a marker" 0 (Ept.mapped_pages e);
  Ept.map e ~gpa:(gpa 0x6000) ~hpa:(hpa 0x88000) ~perm:Ept.rwx;
  Ept.mark_misconfig e ~gpa:(gpa 0x6000) ~tag:"doorbell";
  checki "marking a page unmaps it" 0 (Ept.mapped_pages e);
  Ept.unmap e ~gpa:(gpa 0x7000);
  checki "unmapping nothing" 0 (Ept.mapped_pages e)

let test_ept_mapped_pages_remap () =
  let e = Ept.create () in
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x88000) ~perm:Ept.rwx;
  Ept.map e ~gpa:(gpa 0x4000) ~hpa:(hpa 0x99000) ~perm:Ept.ro;
  checki "remap counts once" 1 (Ept.mapped_pages e);
  Ept.map_range e ~gpa:(gpa 0x3000) ~hpa:(hpa 0x100000) ~len:(3 * 4096) ~perm:Ept.rwx;
  checki "range over a present page" 3 (Ept.mapped_pages e);
  (match Ept.translate e ~gpa:(gpa 0x4000) ~access:Ept.Write with
  | Ok h -> checki "range remapped it" 0x101000 (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "remapped page must translate");
  Ept.unmap e ~gpa:(gpa 0x4000);
  checki "one unmap empties the page" 2 (Ept.mapped_pages e)

let test_ept_sparse_high_addresses () =
  let e = Ept.create () in
  (* exercise all four radix levels *)
  let high = gpa (0x1F_FFFF_F000 land lnot 0xFFF) in
  Ept.map e ~gpa:high ~hpa:(hpa 0x7000) ~perm:Ept.rwx;
  match Ept.translate e ~gpa:high ~access:Ept.Exec with
  | Ok h -> checki "high mapping" 0x7000 (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "high address should map"

let test_ept_invept_counts () =
  let e = Ept.create () in
  Ept.invept e;
  Ept.invept e;
  checki "invalidations" 2 (Ept.invalidations e)

let test_ept_map_range () =
  let e = Ept.create () in
  Ept.map_range e ~gpa:(gpa 0) ~hpa:(hpa 0x100000) ~len:(3 * 4096) ~perm:Ept.rwx;
  checki "three pages" 3 (Ept.mapped_pages e);
  match Ept.translate e ~gpa:(gpa 0x2ABC) ~access:Ept.Read with
  | Ok h -> checki "third page" 0x102ABC (Addr.Hpa.to_int h)
  | Error _ -> Alcotest.fail "range should map"

let prop_ept_translate_preserves_offset =
  QCheck.Test.make ~name:"translation preserves page offset" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 4095))
    (fun (page, off) ->
      let e = Ept.create () in
      let g = gpa (page * 4096) in
      Ept.map e ~gpa:g ~hpa:(hpa 0x40000000) ~perm:Ept.rwx;
      match Ept.translate e ~gpa:(Addr.Gpa.add g off) ~access:Ept.Read with
      | Ok h -> Addr.Hpa.offset h = off
      | Error _ -> false)

(* --- Address space --------------------------------------------------------- *)

let make_aspace () =
  let mem = Phys_mem.create () in
  let alloc = Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
  Aspace.create ~mem ~alloc ~ram_bytes:(1 lsl 20)

let test_aspace_ram_access () =
  let a = make_aspace () in
  Aspace.write_u64 a (gpa 0x1000) 0x5151L;
  check64 "rw" 0x5151L (Aspace.read_u64 a (gpa 0x1000))

let test_aspace_mmio_region_faults () =
  let a = make_aspace () in
  let bar = Aspace.add_mmio_region a ~name:"net-doorbell" ~len:4096 in
  (match Aspace.translate a ~gpa:bar ~access:Ept.Write with
  | Error (Ept.Misconfiguration { tag; _ }) ->
      Alcotest.(check string) "tag" "net-doorbell" tag
  | _ -> Alcotest.fail "doorbell store must misconfig");
  match Aspace.region_of_gpa a bar with
  | Some r -> Alcotest.(check string) "region" "net-doorbell" r.Aspace.name
  | None -> Alcotest.fail "region must exist"

let test_aspace_alloc_pages_mapped () =
  let a = make_aspace () in
  let g = Aspace.alloc_guest_pages a 2 in
  Aspace.write_bytes a g (Bytes.of_string "hello rings");
  checkb "round trip" true
    (Aspace.read_bytes a g 11 = Bytes.of_string "hello rings")

let test_aspace_bytes_cross_page () =
  let a = make_aspace () in
  let g = Aspace.alloc_guest_pages a 2 in
  let near_end = Addr.Gpa.add g (4096 - 3) in
  Aspace.write_bytes a near_end (Bytes.of_string "boundary");
  checkb "cross-page payload" true
    (Aspace.read_bytes a near_end 8 = Bytes.of_string "boundary")

(* Two guest pages backed by non-adjacent frames: a scalar that straddles
   them must translate each page, not run on into the next host frame. *)
let test_aspace_scalar_straddles_frames () =
  let mem = Phys_mem.create () in
  let alloc = Frame_alloc.create ~base:(1 lsl 30) ~size_bytes:(1 lsl 24) in
  let a = Aspace.create ~mem ~alloc ~ram_bytes:4096 in
  ignore (Frame_alloc.alloc alloc);
  let g = Aspace.alloc_guest_pages a 1 in
  checki "next guest page" 4096 (Addr.Gpa.to_int g);
  let at = gpa 4092 in
  Aspace.write_bytes a at (Bytes.of_string "ABCDEFGH");
  checkb "bytes round trip" true
    (Aspace.read_bytes a at 8 = Bytes.of_string "ABCDEFGH");
  check64 "u64 straddles" 0x4847464544434241L (Aspace.read_u64 a at);
  checki "u32 straddles" 0x46454443 (Aspace.read_u32 a (gpa 4094));
  checki "u16 straddles" 0x4544 (Aspace.read_u16 a (gpa 4095));
  Aspace.write_u64 a at 0x0102030405060708L;
  checkb "u64 write lands in both pages" true
    (Aspace.read_bytes a at 8 = Bytes.of_string "\x08\x07\x06\x05\x04\x03\x02\x01");
  Aspace.write_u32 a (gpa 4094) 0x11223344;
  Aspace.write_u16 a (gpa 4095) 0x5566;
  checkb "narrow writes land in both pages" true
    (Aspace.read_bytes a at 8 = Bytes.of_string "\x08\x07\x44\x66\x55\x11\x02\x01")

let () =
  Alcotest.run "svt_mem"
    [
      ( "addr",
        [
          Alcotest.test_case "pages and offsets" `Quick test_addr_pages;
          Alcotest.test_case "negative rejected" `Quick test_addr_negative_rejected;
        ] );
      ( "phys-mem",
        [
          Alcotest.test_case "widths" `Quick test_phys_mem_rw_widths;
          Alcotest.test_case "page crossing" `Quick test_phys_mem_page_crossing;
          Alcotest.test_case "bytes round trip" `Quick test_phys_mem_bytes_roundtrip;
          Alcotest.test_case "sparse materialization" `Quick test_phys_mem_sparse;
          Alcotest.test_case "u32 touches own bytes" `Quick
            test_phys_mem_u32_own_bytes;
        ] );
      ( "frame-alloc",
        [
          Alcotest.test_case "distinct aligned frames" `Quick
            test_frame_alloc_distinct_aligned;
          Alcotest.test_case "free and reuse" `Quick test_frame_alloc_free_reuse;
          Alcotest.test_case "exhaustion" `Quick test_frame_alloc_exhaustion;
          Alcotest.test_case "run is contiguous" `Quick test_frame_alloc_run_contiguous;
          Alcotest.test_case "run exhaustion leaves allocator unchanged" `Quick
            test_frame_alloc_run_exhaustion;
        ] );
      ( "ept",
        [
          Alcotest.test_case "map and translate" `Quick test_ept_map_translate;
          Alcotest.test_case "violation on unmapped" `Quick test_ept_violation_unmapped;
          Alcotest.test_case "write protection" `Quick test_ept_write_protection;
          Alcotest.test_case "misconfig marker (virtio doorbell)" `Quick
            test_ept_misconfig_marker;
          Alcotest.test_case "unmap" `Quick test_ept_unmap;
          Alcotest.test_case "mapped count ignores misconfig markers" `Quick
            test_ept_mapped_pages_misconfig;
          Alcotest.test_case "mapped count on remap" `Quick test_ept_mapped_pages_remap;
          Alcotest.test_case "deep radix levels" `Quick test_ept_sparse_high_addresses;
          Alcotest.test_case "invept counter" `Quick test_ept_invept_counts;
          Alcotest.test_case "map range" `Quick test_ept_map_range;
          QCheck_alcotest.to_alcotest prop_ept_translate_preserves_offset;
        ] );
      ( "address-space",
        [
          Alcotest.test_case "ram access" `Quick test_aspace_ram_access;
          Alcotest.test_case "mmio region misconfigs" `Quick
            test_aspace_mmio_region_faults;
          Alcotest.test_case "allocated pages usable" `Quick
            test_aspace_alloc_pages_mapped;
          Alcotest.test_case "cross-page bytes" `Quick test_aspace_bytes_cross_page;
          Alcotest.test_case "scalars straddle non-adjacent frames" `Quick
            test_aspace_scalar_straddles_frames;
        ] );
    ]
