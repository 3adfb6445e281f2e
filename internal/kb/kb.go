// Package kb implements P-MoVE's Knowledge Base: a tree of DTDL
// interfaces — one standalone (sub)twin per hardware component — generated
// from an in-depth probing of the target system, enriched live with
// process, benchmark and observation entries, and used to drive every
// other function of the framework (sampler configuration, dashboard
// generation, linked-data queries; paper §III).
package kb

import (
	"fmt"
	"sort"
	"strings"

	"pmove/internal/docdb"
	"pmove/internal/jsonld"
	"pmove/internal/ontology"
	"pmove/internal/pmu"
	"pmove/internal/topo"
)

// Config carries the environment parameters the daemon reads at start
// (Figure 3 step ⓪): database addresses and the visualization token.
type Config struct {
	InfluxAddr   string `json:"influx_addr"`
	MongoAddr    string `json:"mongo_addr"`
	GrafanaToken string `json:"grafana_token"`
}

// Node is one component twin in the KB tree.
type Node struct {
	ID        string
	Kind      ontology.ComponentKind
	Ordinal   int
	Interface *ontology.Interface
	Parent    string   // DTMI of parent, "" for root
	Children  []string // DTMIs, sorted
}

// KB is the knowledge base of one system. It is "a snapshot of every piece
// of information obtained from probing and previous analyses … dynamic and
// evolving".
type KB struct {
	Host   string
	Config Config
	// Probe is the raw probe document the KB was generated from.
	Probe *topo.ProbeDoc

	nodes map[string]*Node
	root  string

	// Entries are the live attachments: observations, benchmark results,
	// process instantiations. They only grow: Attach appends.
	Entries []Entry

	// db is the database Persist last wrote the whole KB to, and
	// persisted how many leading Entries are stored there.
	db        *docdb.DB
	persisted int
}

// Root returns the root node (the system twin).
func (k *KB) Root() *Node { return k.nodes[k.root] }

// Node returns a component twin by DTMI.
func (k *KB) Node(id string) (*Node, bool) {
	n, ok := k.nodes[id]
	return n, ok
}

// Nodes returns all nodes sorted by DTMI.
func (k *KB) Nodes() []*Node {
	out := make([]*Node, 0, len(k.nodes))
	for _, n := range k.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodesOfKind returns all nodes of one component kind, sorted by ordinal.
func (k *KB) NodesOfKind(kind ontology.ComponentKind) []*Node {
	var out []*Node
	for _, n := range k.nodes {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ordinal < out[j].Ordinal })
	return out
}

// Len returns the number of component twins.
func (k *KB) Len() int { return len(k.nodes) }

// addNode inserts a node and wires the parent relationship (both the tree
// pointer and the DTDL Relationship content).
func (k *KB) addNode(parent string, kind ontology.ComponentKind, ordinal int, iface *ontology.Interface) (*Node, error) {
	n := &Node{ID: iface.ID, Kind: kind, Ordinal: ordinal, Interface: iface, Parent: parent}
	if _, dup := k.nodes[n.ID]; dup {
		return nil, fmt.Errorf("kb: duplicate component id %s", n.ID)
	}
	if parent != "" {
		p, ok := k.nodes[parent]
		if !ok {
			return nil, fmt.Errorf("kb: parent %s of %s not found", parent, n.ID)
		}
		if !ontology.CanContain(p.Kind, kind) {
			return nil, fmt.Errorf("kb: ontology forbids %s containing %s", p.Kind, kind)
		}
		p.Children = append(p.Children, n.ID)
		sort.Strings(p.Children)
		p.Interface.AddRelationship(ontology.RelContains, n.ID)
	}
	k.nodes[n.ID] = n
	return n, nil
}

// Validate checks tree integrity: a single root, acyclic parent links,
// valid interfaces.
func (k *KB) Validate() error {
	if k.root == "" {
		return fmt.Errorf("kb: no root")
	}
	roots := 0
	for _, n := range k.nodes {
		if n.Parent == "" {
			roots++
		} else if _, ok := k.nodes[n.Parent]; !ok {
			return fmt.Errorf("kb: node %s has unknown parent %s", n.ID, n.Parent)
		}
		if err := n.Interface.Validate(); err != nil {
			return err
		}
		for _, c := range n.Children {
			child, ok := k.nodes[c]
			if !ok {
				return fmt.Errorf("kb: node %s lists unknown child %s", n.ID, c)
			}
			if child.Parent != n.ID {
				return fmt.Errorf("kb: child %s of %s points to parent %s", c, n.ID, child.Parent)
			}
		}
	}
	if roots != 1 {
		return fmt.Errorf("kb: %d roots, want exactly 1", roots)
	}
	// Reachability from the root (acyclic by construction of parents).
	seen := map[string]bool{}
	var walk func(id string)
	walk = func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, c := range k.nodes[id].Children {
			walk(c)
		}
	}
	walk(k.root)
	if len(seen) != len(k.nodes) {
		return fmt.Errorf("kb: %d of %d nodes unreachable from root", len(k.nodes)-len(seen), len(k.nodes))
	}
	return nil
}

// Generate builds the knowledge base from a probe document (Figure 3 step
// ②→③): every component becomes an Interface, relationships are encoded,
// and the available PMU events and software metrics are filtered and
// mapped onto the components as HW/SW telemetry.
func Generate(probe *topo.ProbeDoc, cfg Config) (*KB, error) {
	sys := probe.System
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	k := &KB{Host: sys.Hostname, Config: cfg, Probe: probe, nodes: map[string]*Node{}}
	host := sanitizeHost(sys.Hostname)

	mkIface := func(kind ontology.ComponentKind, ordinal int, display string) (*ontology.Interface, error) {
		id, err := ontology.ComponentID(host, kind, ordinal)
		if err != nil {
			return nil, err
		}
		return ontology.NewInterface(id, display)
	}

	// Root: the system twin.
	sysIface, err := mkIface(ontology.KindSystem, 0, sys.Hostname)
	if err != nil {
		return nil, err
	}
	sysIface.AddProperty("hostname", sys.Hostname)
	sysIface.AddProperty("os", sys.OS.Name)
	sysIface.AddProperty("kernel", sys.OS.Kernel)
	sysIface.AddProperty("arch", sys.OS.Arch)
	sysIface.AddProperty("cpu_model", sys.CPU.Model)
	sysIface.AddProperty("microarch", sys.CPU.Microarch)
	sysIface.AddProperty("vendor", string(sys.CPU.Vendor))
	sysIface.AddProperty("sockets", sys.NumSockets())
	sysIface.AddProperty("cores", sys.NumCores())
	sysIface.AddProperty("threads", sys.NumThreads())
	sysIface.AddSWTelemetry("mem_used", "mem.util.used", "mem_util_used", "", "Used physical memory in bytes")
	sysIface.AddSWTelemetry("loadavg", "kernel.all.load", "kernel_all_load", "1 minute", "1-minute load average")
	sysIface.AddSWTelemetry("nprocs", "kernel.all.nprocs", "kernel_all_nprocs", "", "Number of processes")
	// The system twin's Commands: the actions the daemon can invoke on it
	// (DTDL's sixth metamodel class).
	sysIface.AddCommand("run_benchmark",
		&ontology.CommandPayload{Name: "benchmark", Schema: "string"},
		&ontology.CommandPayload{Name: "entry_id", Schema: "string"})
	sysIface.AddCommand("observe_kernel",
		&ontology.CommandPayload{Name: "command_line", Schema: "string"},
		&ontology.CommandPayload{Name: "observation_tag", Schema: "string"})
	root, err := k.addNodeRoot(ontology.KindSystem, 0, sysIface)
	if err != nil {
		return nil, err
	}

	// HW events available on the microarchitecture (libpfm4 inventory).
	hwEvents := probe.PMUEvents
	if len(hwEvents) == 0 {
		if cat, err := pmu.CatalogFor(sys.CPU.Microarch); err == nil {
			hwEvents = cat.Names()
		}
	}

	for _, sk := range sys.Sockets {
		skIface, err := mkIface(ontology.KindSocket, sk.ID, fmt.Sprintf("%s socket %d", sys.Hostname, sk.ID))
		if err != nil {
			return nil, err
		}
		skIface.AddProperty("cores", len(sk.Cores))
		skIface.AddProperty("model", sys.CPU.Model)
		skIface.AddHWTelemetry("energy_pkg", "rapl", pmu.RAPLEnergyPkg,
			"perfevent_hwcounters_RAPL_ENERGY_PKG", fmt.Sprintf("_socket%d", sk.ID),
			"Package energy in microjoules")
		skNode, err := k.addNode(root.ID, ontology.KindSocket, sk.ID, skIface)
		if err != nil {
			return nil, err
		}

		for _, c := range sk.Cores {
			cIface, err := mkIface(ontology.KindCore, c.ID, fmt.Sprintf("core %d", c.ID))
			if err != nil {
				return nil, err
			}
			cIface.AddProperty("socket", c.SocketID)
			cIface.AddProperty("numa", c.NUMAID)
			cNode, err := k.addNode(skNode.ID, ontology.KindCore, c.ID, cIface)
			if err != nil {
				return nil, err
			}
			for _, t := range c.Threads {
				tIface, err := mkIface(ontology.KindThread, t.ID, fmt.Sprintf("cpu%d", t.ID))
				if err != nil {
					return nil, err
				}
				tIface.AddProperty("core", t.CoreID)
				field := fmt.Sprintf("_cpu%d", t.ID)
				tIface.AddSWTelemetry("cpu_idle", "kernel.percpu.cpu.idle", "kernel_percpu_cpu_idle", field, "Per-CPU idle fraction")
				tIface.AddSWTelemetry("cpu_user", "kernel.percpu.cpu.user", "kernel_percpu_cpu_user", field, "Per-CPU user fraction")
				for _, ev := range hwEvents {
					if strings.HasPrefix(ev, "RAPL_") {
						continue // package scope, attached to the socket
					}
					tIface.AddHWTelemetry(
						telemetryName(ev), "core", ev,
						"perfevent_hwcounters_"+sanitizeMetric(ev), field,
						"PMU event "+ev)
				}
				if _, err := k.addNode(cNode.ID, ontology.KindThread, t.ID, tIface); err != nil {
					return nil, err
				}
			}
			// Per-core private caches.
			for _, cache := range sys.Caches {
				if cache.Shared {
					continue
				}
				ord := c.ID*8 + int(cache.Level)
				caIface, err := mkIface(ontology.KindCache, ord, fmt.Sprintf("%s of core %d", cache.Level, c.ID))
				if err != nil {
					return nil, err
				}
				caIface.AddProperty("level", cache.Level.String())
				caIface.AddProperty("size_bytes", cache.SizeBytes)
				caIface.AddProperty("line_bytes", cache.LineBytes)
				if _, err := k.addNode(cNode.ID, ontology.KindCache, ord, caIface); err != nil {
					return nil, err
				}
			}
		}
		// Shared caches live under the socket.
		for _, cache := range sys.Caches {
			if !cache.Shared {
				continue
			}
			ord := sk.ID*8 + int(cache.Level)
			caIface, err := mkIface(ontology.KindCache, 1000+ord, fmt.Sprintf("%s of socket %d", cache.Level, sk.ID))
			if err != nil {
				return nil, err
			}
			caIface.AddProperty("level", cache.Level.String())
			caIface.AddProperty("size_bytes", cache.SizeBytes)
			caIface.AddProperty("shared", true)
			if _, err := k.addNode(skNode.ID, ontology.KindCache, 1000+ord, caIface); err != nil {
				return nil, err
			}
		}
		// NUMA nodes of this socket.
		for _, nn := range sys.NUMA {
			if nn.ID != sk.ID {
				continue
			}
			nIface, err := mkIface(ontology.KindNUMA, nn.ID, fmt.Sprintf("numa %d", nn.ID))
			if err != nil {
				return nil, err
			}
			nIface.AddProperty("memory_bytes", nn.MemoryBytes)
			nIface.AddSWTelemetry("alloc_hit", "mem.numa.alloc_hit", "mem_numa_alloc_hit",
				fmt.Sprintf("_node%d", nn.ID), "NUMA local allocation hits")
			if _, err := k.addNode(skNode.ID, ontology.KindNUMA, nn.ID, nIface); err != nil {
				return nil, err
			}
		}
	}

	// Memory, disks, NICs, GPUs under the system.
	memIface, err := mkIface(ontology.KindMemory, 0, "main memory")
	if err != nil {
		return nil, err
	}
	memIface.AddProperty("total_bytes", sys.Memory.TotalBytes)
	memIface.AddProperty("type", sys.Memory.Type)
	memIface.AddProperty("mhz", sys.Memory.MHz)
	memIface.AddSWTelemetry("mem_free", "mem.util.free", "mem_util_free", "", "Free physical memory")
	if _, err := k.addNode(root.ID, ontology.KindMemory, 0, memIface); err != nil {
		return nil, err
	}
	for di, d := range sys.Disks {
		dIface, err := mkIface(ontology.KindDisk, di, d.Name)
		if err != nil {
			return nil, err
		}
		dIface.AddProperty("model", d.Model)
		dIface.AddProperty("size_bytes", d.SizeBytes)
		dIface.AddProperty("rotational", d.Rotational)
		dIface.AddSWTelemetry("write_bytes", "disk.all.write_bytes", "disk_all_write_bytes", d.Name, "Disk write throughput")
		if _, err := k.addNode(root.ID, ontology.KindDisk, di, dIface); err != nil {
			return nil, err
		}
	}
	for ni, nic := range sys.NICs {
		nIface, err := mkIface(ontology.KindNIC, ni, nic.Name)
		if err != nil {
			return nil, err
		}
		nIface.AddProperty("speed_mbps", nic.SpeedMbps)
		nIface.AddProperty("address", nic.Address)
		nIface.AddSWTelemetry("out_bytes", "network.interface.out.bytes", "network_interface_out_bytes", nic.Name, "NIC egress bytes")
		if _, err := k.addNode(root.ID, ontology.KindNIC, ni, nIface); err != nil {
			return nil, err
		}
	}
	for _, g := range sys.GPUs {
		gIface, err := mkIface(ontology.KindGPU, g.ID, g.Model)
		if err != nil {
			return nil, err
		}
		gIface.AddProperty("model", g.Model)
		gIface.AddProperty("memory", fmt.Sprintf("%d Mb", g.MemoryMB))
		gIface.AddProperty("sms", g.SMs)
		gIface.AddProperty("numa node", g.NUMANode)
		gIface.AddProperty("bus", g.BusID)
		gIface.AddSWTelemetry("memused", "nvidia.memused", "nvidia_memused", fmt.Sprintf("_gpu%d", g.ID), "GPU memory in use")
		gIface.AddSWTelemetry("gpuactive", "nvidia.gpuactive", "nvidia_gpuactive", fmt.Sprintf("_gpu%d", g.ID), "GPU utilisation")
		gIface.AddHWTelemetry("compute_mem_throughput", "ncu",
			"gpu__compute_memory_access_throughput",
			"ncu_gpu__compute_memory_access_throughput", fmt.Sprintf("_gpu%d", g.ID),
			"Compute Memory Pipeline: throughput of internal activity within caches and DRAM")
		if _, err := k.addNode(root.ID, ontology.KindGPU, g.ID, gIface); err != nil {
			return nil, err
		}
	}

	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// addNodeRoot installs the root node.
func (k *KB) addNodeRoot(kind ontology.ComponentKind, ordinal int, iface *ontology.Interface) (*Node, error) {
	if k.root != "" {
		return nil, fmt.Errorf("kb: root already set")
	}
	n, err := k.addNode("", kind, ordinal, iface)
	if err != nil {
		return nil, err
	}
	k.root = n.ID
	return n, nil
}

// sanitizeHost makes a hostname DTMI-segment-safe.
func sanitizeHost(h string) string {
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	s := b.String()
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "h" + s
	}
	return s
}

// sanitizeMetric converts a PMU event name into a DB-safe measurement
// suffix.
func sanitizeMetric(ev string) string {
	return metricReplacer.Replace(ev)
}

var metricReplacer = strings.NewReplacer(":", "_", ".", "_", "-", "_")

// telemetryName converts an event name to a content name.
func telemetryName(ev string) string {
	return strings.ToLower(sanitizeMetric(ev))
}

// TripleStore expands every interface of the KB into a triple store for
// linked-data queries.
func (k *KB) TripleStore() (*jsonld.Store, error) {
	st := jsonld.NewStore()
	for _, n := range k.Nodes() {
		doc, err := n.Interface.MarshalJSONLD()
		if err != nil {
			return nil, err
		}
		if _, err := st.AddDocument(doc); err != nil {
			return nil, err
		}
	}
	return st, nil
}
