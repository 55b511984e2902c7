(** Zhang et al.'s Deep Graph Convolutional Neural Network (AAAI'18), the
    [dgcnn] model of the paper (§3.2):

    1. four graph-convolution layers (channel widths 16, 16, 16 and 1) with
       hyperbolic-tangent activation: Z_l = tanh(D⁻¹ Â Z_(l-1) W_l);
    2. sort pooling on the last (1-wide) channel, keeping the top-k nodes;
    3. a one-dimensional convolution;
    4. max pooling;
    5. a second one-dimensional convolution;
    6. a dense layer with dropout; and
    7. a final dense classification layer.

    Backpropagation runs end-to-end, through the convolutional head, the
    (fixed-permutation) sort pooling, and the graph convolutions.  Channel
    widths are scaled down from the original (32 → 16) so the model trains
    in seconds on synthetic corpora; the architecture is otherwise as
    published.

    Graphs are first {e prepared}: capped to [max_nodes], their
    neighbourhoods indexed as CSR arrays, their node features squashed and
    propagated through the first layer's P = D⁻¹ Â.  Training is minibatch
    SGD (DESIGN.md §15): per batch, every graph's forward pass runs in
    parallel shards over {!Yali_exec.Pool}, the pooled flat vectors feed
    one batched {!Nn.train_batch} step of the head, and the
    graph-convolution gradients are accumulated per shard and merged in a
    fixed tree order — bit-identical at any [--jobs] and to the frozen
    naive trainer in [Reference.Dgcnn].  {!train} prepares every graph once
    per run; {!train_source} consumes a {!Gsource.t} (graphs streamed from
    a corpus store) and prepares each graph on every visit, so it never
    holds more than one minibatch.  Both run the same epoch loop. *)

module Rng = Yali_util.Rng
module Pool = Yali_exec.Pool
module Graph = Yali_embeddings.Graph

type params = {
  gc_channels : int list;  (** graph-conv widths; last must be 1 *)
  sortpool_k : int;
  epochs : int;
  lr : float;
  max_nodes : int;
      (** graphs larger than this are truncated to a prefix subgraph — a
          sampling cap that bounds the per-graph cost on heavily obfuscated
          inputs (flattened/bogus code can be 5x the original size) *)
  batch : int;  (** graphs per minibatch *)
}

let default_params =
  {
    gc_channels = [ 16; 16; 16; 1 ];
    sortpool_k = 16;
    epochs = 24;
    lr = 0.02;
    max_nodes = 384;
    batch = 32;
  }

type t = {
  params : params;
  gc_weights : Matrix.t list;  (** one per graph-conv layer *)
  head : Nn.t;
  feat_dim : int;
  n_classes : int;
}

(* A graph made ready for convolution: capped, indexed, squashed and
   propagated once, then shared by every epoch that visits it. *)
type prepared = {
  offsets : int array;
      (** CSR row starts: row [i]'s neighbourhood is
          [neighbours.(offsets.(i)) .. neighbours.(offsets.(i+1) - 1)] *)
  neighbours : int array;
      (** N(i) ∪ {i} per row, in the order [i :: Graph.undirected_adjacency]
          lists it, so every propagated sum keeps its term order *)
  deg : float array;  (** row lengths |N(i) ∪ {i}| *)
  px0 : Matrix.t;
      (** P·X0: the log1p-squashed node features, propagated — the first
          layer's input, which no weight update changes *)
}

(* Propagation: Y = D^-1 (A + I) X.  Each output row accumulates its
   neighbours' rows in CSR order, dividing every term by the degree. *)
let propagate (g : prepared) (x : Matrix.t) : Matrix.t =
  let n = x.Matrix.rows and d = x.Matrix.cols in
  let y = Matrix.create n d in
  let xd = x.Matrix.data and yd = y.Matrix.data in
  for i = 0 to n - 1 do
    let deg = g.deg.(i) and yb = i * d in
    for k = g.offsets.(i) to g.offsets.(i + 1) - 1 do
      let xb = Array.unsafe_get g.neighbours k * d in
      for c = 0 to d - 1 do
        Array.unsafe_set yd (yb + c)
          (Array.unsafe_get yd (yb + c)
          +. (Array.unsafe_get xd (xb + c) /. deg))
      done
    done
  done;
  y

(* Transposed propagation for the backward pass: given dY, returns dX where
   Y = P X and P_(i,j) = 1/deg(i) for j in N(i) u {i}. *)
let propagate_t (g : prepared) (dy : Matrix.t) : Matrix.t =
  let n = dy.Matrix.rows and d = dy.Matrix.cols in
  let dx = Matrix.create n d in
  let dyd = dy.Matrix.data and dxd = dx.Matrix.data in
  for i = 0 to n - 1 do
    let deg = g.deg.(i) and yb = i * d in
    for k = g.offsets.(i) to g.offsets.(i + 1) - 1 do
      let xb = Array.unsafe_get g.neighbours k * d in
      for c = 0 to d - 1 do
        Array.unsafe_set dxd (xb + c)
          (Array.unsafe_get dxd (xb + c)
          +. (Array.unsafe_get dyd (yb + c) /. deg))
      done
    done
  done;
  dx

(* squash count-valued node features (e.g. per-block histograms of the
   compact embeddings): raw counts saturate the tanh units *)
let squash v = Float.copy_sign (log1p (Float.abs v)) v

let prepare (p : params) (g : Graph.t) : prepared =
  (* an empty graph is treated as a single zero-feature node *)
  let feats, edges =
    if Graph.node_count g = 0 then ([| Array.make g.feat_dim 0.0 |], [])
    else (g.node_feats, g.edges)
  in
  (* cap the graph size: keep a prefix subgraph *)
  let n = min (Array.length feats) p.max_nodes in
  let kept (s, d, _) = s < n && d < n in
  (* row lengths, then fill each row back to front: undirected_adjacency
     prepends, so the last edge seen is the first neighbour after i *)
  let len = Array.make n 1 in
  List.iter
    (fun ((s, d, _) as e) ->
      if kept e then begin
        len.(s) <- len.(s) + 1;
        if s <> d then len.(d) <- len.(d) + 1
      end)
    edges;
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + len.(i)
  done;
  let neighbours = Array.make offsets.(n) 0 in
  let fill = Array.sub offsets 1 n in
  let push i j =
    fill.(i) <- fill.(i) - 1;
    neighbours.(fill.(i)) <- j
  in
  List.iter
    (fun ((s, d, _) as e) ->
      if kept e then begin
        push s d;
        if s <> d then push d s
      end)
    edges;
  for i = 0 to n - 1 do
    neighbours.(offsets.(i)) <- i
  done;
  let fd = if n = 0 then 0 else Array.length feats.(0) in
  let x0 = Matrix.create_uninit n fd in
  for i = 0 to n - 1 do
    let row = feats.(i) in
    for c = 0 to fd - 1 do
      x0.Matrix.data.((i * fd) + c) <- squash row.(c)
    done
  done;
  let g = { offsets; neighbours; deg = Array.map float_of_int len; px0 = x0 } in
  { g with px0 = propagate g x0 }

type forward_state = {
  graph : prepared;
  px_list : Matrix.t list;  (** P·Z_(l-1) per layer, pre-weights *)
  z_list : Matrix.t list;  (** post-tanh activations per layer *)
  order : int array;  (** node permutation chosen by sort pooling *)
  flat : float array;  (** pooled, flattened input to the head *)
}

let total_channels (p : params) = List.fold_left ( + ) 0 p.gc_channels

let forward_graph (t_params : params) (gc_weights : Matrix.t list)
    (g : prepared) : forward_state =
  let n = g.px0.Matrix.rows in
  (* layer l convolves P·Z_(l-1); the first layer's P·X0 was propagated
     by [prepare] *)
  let rec go px ws px_acc z_acc =
    match ws with
    | [] -> (List.rev px_acc, List.rev z_acc)
    | w :: rest ->
        let zl = Matrix.matmul px w in
        let d = zl.Matrix.data in
        for i = 0 to Array.length d - 1 do
          Array.unsafe_set d i (tanh (Array.unsafe_get d i))
        done;
        let px' = match rest with [] -> px | _ -> propagate g zl in
        go px' rest (px :: px_acc) (zl :: z_acc)
  in
  let px_list, z_list = go g.px0 gc_weights [] [] in
  (* sort pooling on the last channel of the last layer *)
  let last = List.nth z_list (List.length z_list - 1) in
  let lc = last.Matrix.cols in
  let key = Array.create_float n in
  for i = 0 to n - 1 do
    key.(i) <- last.Matrix.data.((i * lc) + lc - 1)
  done;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare key.(b) key.(a)) order;
  (* the top-k rows of every layer's channels, concatenated *)
  let k = t_params.sortpool_k and tc = total_channels t_params in
  let flat = Array.make (k * tc) 0.0 in
  for r = 0 to min k n - 1 do
    let i = order.(r) in
    ignore
      (List.fold_left
         (fun off (z : Matrix.t) ->
           let c = z.Matrix.cols in
           Array.blit z.Matrix.data (i * c) flat off c;
           off + c)
         (r * tc) z_list)
  done;
  { graph = g; px_list; z_list; order; flat }

(* dL/dW per graph-convolution layer (in layer order) for one graph, given
   dL/d(flat) from the head — no weight update here; the minibatch loop
   accumulates grads across the batch and applies them once.  The same
   computation, on naive matmuls, is frozen in [Reference.Dgcnn]. *)
let graph_backward (p : params) (gc_weights : Matrix.t list)
    (st : forward_state) (dflat : float array) : Matrix.t list =
  let tc = total_channels p in
  let n = Array.length st.order in
  let top = min p.sortpool_k n in
  (* scatter the gradient back through sort pooling, split per layer *)
  let _, layer_grads =
    List.fold_left_map
      (fun off (z : Matrix.t) ->
        let c = z.Matrix.cols in
        let dz = Matrix.create n c in
        for r = 0 to top - 1 do
          Array.blit dflat ((r * tc) + off) dz.Matrix.data (st.order.(r) * c) c
        done;
        (off + c, dz))
      0 st.z_list
  in
  (* process layers from last to first, accumulating the gradient that
     flows down from upper layers *)
  let rec back ws zs pxs dzs (carry : Matrix.t option) (dws : Matrix.t list) =
    match (ws, zs, pxs, dzs) with
    | [], [], [], [] -> dws
    | w :: ws', (z : Matrix.t) :: zs', px :: pxs', (dz : Matrix.t) :: dzs' ->
        (* through tanh, in place: dpre = (dZ + carry) ⊙ (1 - Z²) *)
        let dpre = dz in
        let dd = dpre.Matrix.data and zd = z.Matrix.data in
        (match carry with
        | None ->
            for i = 0 to Array.length dd - 1 do
              let zv = zd.(i) in
              dd.(i) <- dd.(i) *. (1.0 -. (zv *. zv))
            done
        | Some (c : Matrix.t) ->
            let cd = c.Matrix.data in
            for i = 0 to Array.length dd - 1 do
              let zv = zd.(i) in
              dd.(i) <- (dd.(i) +. cd.(i)) *. (1.0 -. (zv *. zv))
            done);
        (* dW = (P Z_(l-1))^T dpre *)
        let dw = Matrix.matmul (Matrix.transpose px) dpre in
        (* gradient to previous layer: P^T (dpre W^T); the first layer's
           input is the fixed node features, so nothing reads it there *)
        let carry =
          match ws' with
          | [] -> None
          | _ ->
              Some
                (propagate_t st.graph
                   (Matrix.matmul dpre (Matrix.transpose w)))
        in
        back ws' zs' pxs' dzs' carry (dw :: dws)
    | _ -> assert false
  in
  back (List.rev gc_weights) (List.rev st.z_list) (List.rev st.px_list)
    (List.rev layer_grads) None []

let init_gc_weights (rng : Rng.t) (p : params) ~(feat_dim : int) :
    Matrix.t list =
  let dims =
    let rec widths d = function
      | [] -> []
      | c :: rest -> (d, c) :: widths c rest
    in
    widths feat_dim p.gc_channels
  in
  List.map
    (fun (d_in, d_out) ->
      Matrix.random rng d_in d_out ~scale:(sqrt (1.0 /. float_of_int d_in)))
    dims

let build_head (rng : Rng.t) (p : params) ~(n_classes : int) : Nn.t =
  let tc = total_channels p in
  let k = p.sortpool_k in
  (* conv over the flattened k*tc signal with kernel = tc, stride = tc: one
     filter application per node slot (the DGCNN trick) *)
  let c1 = 16 in
  let l1 = k in
  let l1p = l1 / 2 in
  let c2 = 16 and k2 = min 3 l1p in
  let l2 = l1p - k2 + 1 in
  {
    Nn.layers =
      [
        Nn.conv1d rng ~c_in:1 ~c_out:c1 ~kernel:tc ~stride:tc;
        Nn.relu ();
        Nn.maxpool 2;
        Nn.conv1d rng ~c_in:c1 ~c_out:c2 ~kernel:k2 ~stride:1;
        Nn.relu ();
        Nn.dense rng ~d_in:(c2 * l2) ~d_out:48;
        Nn.relu ();
        Nn.dropout 0.2;
        Nn.dense rng ~d_in:48 ~d_out:n_classes;
      ];
    n_classes;
  }

let of_parts ~(params : params) ~(gc_weights : Matrix.t list) ~(head : Nn.t)
    ~(feat_dim : int) ~(n_classes : int) : t =
  { params; gc_weights; head; feat_dim; n_classes }

let parts (t : t) = (t.params, t.gc_weights, t.head)

let dump_weights (t : t) : float array array =
  Array.append
    (Array.of_list
       (List.map (fun (w : Matrix.t) -> Array.copy w.Matrix.data) t.gc_weights))
    (Nn.dump_weights t.head)

(* The epoch loop both trainers share: graph [i] is read through [get i],
   only ever for an index of the current minibatch. *)
let train_loop (params : params) (rng : Rng.t) ~(n_classes : int)
    ~(feat_dim : int) ~(n : int) (get : int -> prepared) (ys : int array) : t =
  let gc_weights = init_gc_weights rng params ~feat_dim in
  let head = build_head rng params ~n_classes in
  let order = Array.init n Fun.id in
  let flat_w = params.sortpool_k * total_channels params in
  for epoch = 0 to params.epochs - 1 do
    let lr = params.lr /. (1.0 +. (0.05 *. float_of_int epoch)) in
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    let nb = (n + params.batch - 1) / params.batch in
    for b = 0 to nb - 1 do
      let lo = b * params.batch in
      let m = min params.batch (n - lo) in
      (* shard layout shared with Nn.train_batch: boundaries are a function
         of the batch size only, so grads reduce identically at any jobs *)
      let ns = (m + Nn.grad_shard_rows - 1) / Nn.grad_shard_rows in
      let shard_rows s =
        let slo = s * Nn.grad_shard_rows in
        (slo, min m (slo + Nn.grad_shard_rows))
      in
      (* phase 1: forward every graph of the batch (parallel; per-graph
         work is independent, so jobs only changes scheduling) *)
      let states = Array.make m None in
      Pool.run ~n:ns (fun s ->
          let slo, shi = shard_rows s in
          for i = slo to shi - 1 do
            states.(i) <-
              Some (forward_graph params gc_weights (get order.(lo + i)))
          done);
      let flats = Fmat.create m flat_w in
      Fmat.of_rows_into flats
        (Array.map (fun st -> (Option.get st).flat) states);
      let yb = Array.init m (fun i -> ys.(order.(lo + i))) in
      (* phase 2: one batched SGD step of the head; dflat rows are the
         gradients at the pooled inputs *)
      let _loss, dflat = Nn.train_batch ~lr ~rng head flats yb in
      (* phase 3: per-graph gradients of the graph convolutions,
         accumulated per shard in ascending graph order *)
      let shard_acc =
        Array.init ns (fun _ ->
            List.map
              (fun (w : Matrix.t) -> Matrix.create w.Matrix.rows w.Matrix.cols)
              gc_weights)
      in
      Pool.run ~n:ns (fun s ->
          let slo, shi = shard_rows s in
          let accs = shard_acc.(s) in
          for i = slo to shi - 1 do
            let st = Option.get states.(i) in
            let dws =
              graph_backward params gc_weights st (Fmat.row_copy dflat i)
            in
            List.iter2 (fun acc dw -> Matrix.axpy ~a:1.0 dw acc) accs dws
          done);
      (* phase 4: fixed pairwise tree reduction, then one SGD update *)
      Nn.tree_reduce
        (fun a b -> List.iter2 (fun x y -> Matrix.axpy ~a:1.0 y x) a b)
        shard_acc;
      List.iter2
        (fun (w : Matrix.t) dw -> Matrix.axpy ~a:(-.lr) dw w)
        gc_weights shard_acc.(0)
    done
  done;
  { params; gc_weights; head; feat_dim; n_classes }

(* Streamed: each visit re-reads and re-prepares its graph, so no more
   than one minibatch of graphs is ever held. *)
let train_source ?(params = default_params) (rng : Rng.t)
    ~(n_classes : int) (src : Gsource.t) (ys : int array) : t =
  train_loop params rng ~n_classes ~feat_dim:src.Gsource.feat_dim
    ~n:src.Gsource.n
    (fun i -> prepare params (src.Gsource.get i))
    ys

(* In memory: every graph is prepared once, before the first epoch. *)
let train ?(params = default_params) (rng : Rng.t) ~(n_classes : int)
    ~(feat_dim : int) (graphs : Graph.t array) (ys : int array) : t =
  let prepared = Pool.parallel_array_map (prepare params) graphs in
  train_loop params rng ~n_classes ~feat_dim ~n:(Array.length graphs)
    (Array.get prepared) ys

let predict (t : t) (g : Graph.t) : int =
  let st = forward_graph t.params t.gc_weights (prepare t.params g) in
  Nn.predict t.head st.flat

let size_bytes (t : t) : int =
  Nn.size_bytes t.head
  + List.fold_left
      (fun acc (w : Matrix.t) -> acc + (8 * w.rows * w.cols))
      0 t.gc_weights
