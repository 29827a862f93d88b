type kind = Scalar | Memory | Loop | Cfg | Cleanup

type t = { name : string; doc : string; kind : kind; run : Ir.func -> int }

let kind_name = function
  | Scalar -> "scalar"
  | Memory -> "memory"
  | Loop -> "loop"
  | Cfg -> "cfg"
  | Cleanup -> "cleanup"

let all =
  [
    {
      name = "const_fold";
      doc =
        "fold constant operations, algebraic identities, and constant \
         branches";
      kind = Scalar;
      run = Passes.const_fold;
    };
    {
      name = "copy_prop";
      doc = "propagate Mov sources into later uses (block-local)";
      kind = Scalar;
      run = Passes.copy_prop;
    };
    {
      name = "cse";
      doc =
        "share repeated pure computations and repeated loads (block-local \
         value numbering)";
      kind = Scalar;
      run = Passes.cse;
    };
    {
      name = "store_forward";
      doc =
        "forward stored values to later loads from the same address, \
         skipping the memory port";
      kind = Memory;
      run = Passes.store_forward;
    };
    {
      name = "strength_reduce";
      doc =
        "collapse add-immediate address chains; multiply by 2^k+-1 via shift \
         and add/sub";
      kind = Memory;
      run = Passes.strength_reduce;
    };
    {
      name = "licm";
      doc = "hoist loop-invariant computations into a preheader";
      kind = Loop;
      run = Passes.licm;
    };
    {
      name = "coalesce";
      doc =
        "fold [t = op; d = t] pairs so the operation writes its destination \
         directly";
      kind = Cleanup;
      run = Passes.coalesce;
    };
    {
      name = "dce";
      doc = "delete pure instructions whose results are never used";
      kind = Cleanup;
      run = Passes.dce;
    };
    {
      name = "simplify_cfg";
      doc =
        "thread trivial jumps, drop unreachable blocks, merge \
         single-predecessor chains";
      kind = Cfg;
      run = Passes.simplify_cfg;
    };
  ]

let find name = List.find_opt (fun p -> p.name = name) all
