// Package camsim is a from-scratch Go reproduction of "CAM: Asynchronous
// GPU-Initiated, CPU-Managed SSD Management for Batching Storage Access"
// (ICDE 2025).
//
// The paper's hardware — an A100 GPU, twelve NVMe SSDs, a PCIe Gen4 fabric,
// GDRCopy peer-to-peer DMA — is rebuilt as a deterministic discrete-event
// simulation with real data movement, and CAM itself, every baseline it is
// compared against (BaM, SPDK, GPUDirect Storage, the POSIX/libaio/io_uring
// kernel stacks), and the paper's three applications (GNN training,
// mergesort, GEMM) are implemented on top. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-versus-measured record.
//
// cambench regenerates every table and figure of the paper's evaluation
// section:
//
//	go run ./cmd/cambench -exp all          # paper scale
//	go run ./cmd/cambench -exp all -quick   # scaled down
package camsim
