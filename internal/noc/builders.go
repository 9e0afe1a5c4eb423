package noc

// BuildMeshCores creates a mesh per cfg (a torus when cfg.Torus) and attaches
// one core endpoint to every router's core port — the topology of the paper's
// Section 3.2 synthetic-traffic study. It returns the network and the cores in
// row-major router order.
func BuildMeshCores(cfg Config) (*Network, []*Node) {
	n := New(cfg)
	nodes := make([]*Node, 0, cfg.Width*cfg.Height)
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			nodes = append(nodes, n.AttachNode(x, y, PortCore, DstCore, "core"))
		}
	}
	return n, nodes
}
