package noc

// BuildMeshCores creates a mesh per cfg and attaches one core endpoint to
// every router's core port — the topology of the paper's Section 3.2
// synthetic-traffic study. It returns the network and the cores in row-major
// router order.
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

// BuildTorusCores is BuildMeshCores with both dimensions closed into rings
// (cfg.Torus is forced on): every router gains wraparound links, routing takes
// the shorter way around each ring, and Distance becomes per-dimension ring
// distance.
func BuildTorusCores(cfg Config) (*Network, []*Node) {
	cfg.Torus = true
	return BuildMeshCores(cfg)
}

// BuildMesh16x16 creates the 16x16 large-mesh scenario: one core per router,
// three message classes, and the deeper buffers the bigger diameter needs to
// sustain Section 3.2-style loads.
func BuildMesh16x16() (*Network, []*Node) {
	return BuildMeshCores(Config{Width: 16, Height: 16, VCs: 3, BufferCap: 8})
}

// BuildMesh32x32 creates the 32x32 large-mesh scenario used for the stepping
// throughput benchmarks (1024 routers, 1024 cores).
func BuildMesh32x32() (*Network, []*Node) {
	return BuildMeshCores(Config{Width: 32, Height: 32, VCs: 3, BufferCap: 8})
}

// BuildMesh64x64 creates the 64x64 large-mesh scenario (4096 routers, 4096
// cores) — the sparse-activity regime the active-set stepping engine targets:
// at low injection rates the per-cycle cost tracks the in-flight population,
// not the topology size.
func BuildMesh64x64() (*Network, []*Node) {
	return BuildMeshCores(Config{Width: 64, Height: 64, VCs: 3, BufferCap: 8})
}
