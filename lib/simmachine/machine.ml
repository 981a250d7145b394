type t = {
  name : string;
  node : Node.t;
  node_count : int;
  network : Network.t;
  node_mtbf : float;
}

let create ?(name = "machine") ?(node_mtbf = 5.0 *. 365.25 *. 86400.0) ~node ~node_count
    ~network () =
  if node_count <= 0 then invalid_arg "Machine.create: node_count must be positive";
  if node_mtbf <= 0.0 then invalid_arg "Machine.create: node_mtbf must be positive";
  { name; node; node_count; network; node_mtbf }

let total_cores t = t.node_count * t.node.Node.cores

let peak t p = Node.node_rate t.node p *. float_of_int t.node_count

let system_mtbf t = t.node_mtbf /. float_of_int t.node_count

let power t = t.node.Node.watts *. float_of_int t.node_count

let energy t ~seconds = power t *. seconds

let describe t =
  Printf.sprintf "%s: %d nodes x %d cores, peak %s (fp64), %s mem-bw/node, %s, MTBF(sys) %s"
    t.name t.node_count t.node.Node.cores
    (Xsc_util.Units.flops (peak t Node.FP64))
    (Xsc_util.Units.bytes t.node.Node.mem_bandwidth ^ "/s")
    (Topology.name t.network.Network.topology)
    (Xsc_util.Units.seconds (system_mtbf t))
