(** Persistent content-addressed synthesis store.

    One synthesized {!Vmht.Flow.hw_thread} per file, under the key
    {!Vmht.Flow.cache_key} (what synthesis reads from the config and
    wrapper style, and the kernel), so a result computed by any process
    on this machine is a disk read for every later one.  Entries
    written before the key stopped covering the whole config keep
    their layout, so the format version is unchanged; they sit under
    names no request derives any more, and cost only disk space.  Entries are
    written atomically (temp file + [rename]) and carry a format
    version and a payload checksum; a mismatched, truncated or
    otherwise corrupt entry is silently dropped and counted — loads
    never raise, the worst case is a re-synthesis.

    The store plugs into the flow's single-flight memo through
    {!install}: on a memo miss the flow consults the store first and
    promotes a disk hit into memory, and every fresh synthesis is
    written through. *)

type t

val format_version : string
(** First line of every entry ([vmht-store/1]); bump on any layout
    change so old caches read as version-mismatch misses, not
    corruption. *)

val default_dir : unit -> string
(** [$VMHT_STORE_DIR], else [$XDG_CACHE_HOME/vmht/store], else
    [$HOME/.cache/vmht/store], else [_vmht_store] in the cwd. *)

val open_ : ?dir:string -> unit -> (t, Vmht.Flow.error) result
(** Create [dir] (and parents) if needed and probe writability.
    [Error (Store_error { fault = Store_unwritable _; _ })] if the
    directory cannot be created or written. *)

val dir : t -> string

val path : t -> key:string -> string
(** The entry file an eventual [save ~key] would write. *)

val contains : t -> key:string -> bool
(** Entry file exists (no decode — used for hit accounting and batch
    dedup, where a later corrupt load only costs a re-synthesis). *)

val load :
  t -> key:string -> Vmht_lang.Ast.kernel -> Vmht.Flow.hw_thread option
(** [None] on a missing, version-mismatched or corrupt entry (counted
    separately in {!stats}); never raises. *)

val save :
  t ->
  key:string ->
  Vmht_lang.Ast.kernel ->
  Vmht.Flow.hw_thread ->
  (unit, Vmht.Flow.error) result
(** Atomic write-through; concurrent savers of the same key race
    benignly (last rename wins, both wrote identical bytes). *)

val backend : t -> Vmht.Flow.store_backend

val install : t -> unit
(** [Vmht.Flow.set_store (Some (backend t))]. *)

(** {2 Entry codec} (exposed for the round-trip and corruption tests) *)

val encode_entry : Vmht_lang.Ast.kernel -> Vmht.Flow.hw_thread -> string

val decode_entry :
  string ->
  (Vmht_lang.Ast.kernel * Vmht.Flow.hw_thread, Vmht.Flow.store_fault) result
(** Total: every byte string decodes to [Ok] or a typed fault.  The
    payload checksum is verified {e before} unmarshalling, so a
    truncated or bit-flipped entry is a clean [Store_corrupt], not
    undefined behaviour inside [Marshal]. *)

(** {2 Counters} *)

type stats = {
  hits : int;
  misses : int;  (** absent entries and kernel-collision rejects *)
  saves : int;
  corrupt : int;  (** checksum / truncation / unmarshal failures *)
  version_skew : int;  (** entries from another {!format_version} *)
}

val stats : t -> stats

val reset_stats : t -> unit
