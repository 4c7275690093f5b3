// Package calib is the calibration ledger: every number the simulator takes
// from the paper's testbed (Table III: an A100, twelve P5510s, PCIe Gen4, a
// Xeon Gold 5320) or fits to one of its figures, written once.
//
// A row is one line: a function named after the number that returns it in
// its own type (a sim.Time is integer nanoseconds), then a comment giving
// its unit (a sim.Time row has none), its source — a section, table or
// figure of the paper, a fit to one, or a model choice — and the ids of the
// claims it sets in internal/harness's claim table, separated by " · ". A
// misspelt row fails to compile, and nothing changes a row: there is no
// flag, Config field, environment variable or variable behind one. A Config
// field exists only where a caller varies it, and its Default* value reads
// its row (DESIGN §14). The tests read the rows from this file: DESIGN §4
// cites them, and every row has a reader outside this package.
package calib

import "camsim/internal/sim"

func SSDCapacity() int64                 { return 3_840_000_000_000 }     // B · Table III: P5510 3.84 TB namespace
func SSDReadIOPS() float64               { return 700_000 }               // IOPS · Table III: P5510 4 KiB random read · fig2-below-device fig8-cam-scales fig8-gran-rises
func SSDWriteIOPS() float64              { return 170_000 }               // IOPS · Table III: P5510 4 KiB random write · fig8-write-below-read
func SSDReadBandwidth() float64          { return 3.2e9 }                 // B/s · fit: internal flash read rate, large commands (datasheet sequential read is 6.5 GB/s) · fig8-gran-rises
func SSDWriteBandwidth() float64         { return 1.9e9 }                 // B/s · fit: internal flash write rate, large commands
func SSDLatencyJitter() float64          { return 0.08 }                  // fraction · model: uniform ± jitter on media latency
func SSDOverProvision() float64          { return 0.07 }                  // fraction · model: FTL spare capacity · abl-ftl-wa
func SSDReadLatency() sim.Time           { return 15 * sim.Microsecond }  // Table III: P5510 read latency
func SSDWriteLatency() sim.Time          { return 82 * sim.Microsecond }  // Table III: P5510 write latency
func SSDGCPageCost() sim.Time            { return 90 * sim.Microsecond }  // model: one NAND page read + program per GC migration (abl-ftl, ChargeGC)
func PCIeBandwidth() float64             { return 21e9 }                  // B/s · §IV-B: Gen4 x16 measured ceiling, net of TLP headers; the SSD fabric and the H2D copy link · fig8-cam-12ssd fig8-cam-scales fig8-gran-rises fig16-collapse fig16-recovers
func PCIeTLPOverhead() sim.Time          { return 8 * sim.Nanosecond }    // model: DMA descriptor handling per transfer
func PCIePropagation() sim.Time          { return 300 * sim.Nanosecond }  // model: one-way doorbell / MMIO latency
func HostChannels() int                  { return 16 }                    // channels · Table III: Xeon Gold 5320 host, all channels populated
func HostCapacity() int64                { return 768 << 30 }             // B · Table III: host DRAM
func HostChannelBandwidth() float64      { return 14e9 }                  // B/s · Fig 15: sustained per-channel rate; two channels cannot feed staging at the link rate · fig15-spdk
func CPUFreq() float64                   { return 2.2e9 }                 // Hz · Table III: Xeon Gold 5320 · fig13-cycles
func GPUSMs() int64                      { return 108 }                   // SMs · Table III: A100 · fig4-5ssd fig4-1ssd
func GPUThreadsPerSM() int64             { return 2048 }                  // threads · Table III: A100 resident threads per SM · fig4-5ssd fig4-1ssd
func GPUMemBytes() int64                 { return 80 << 30 }              // B · Table III: A100 80 GB HBM
func GPUTFLOPS() float64                 { return 312 }                   // TFLOP/s · Table III: A100 TF32 tensor-core peak
func GPUKernelLaunch() sim.Time          { return 4 * sim.Microsecond }   // model: host-side kernel launch
func CopyLaunch() sim.Time               { return 3 * sim.Microsecond }   // Fig 16: cudaMemcpyAsync setup per call (4 KiB staged ⇒ 1.3 GB/s) · fig16-spdk-4k fig16-collapse
func SPDKQueueDepth() uint32             { return 256 }                   // entries · model: SPDK queue pair depth
func SPDKSubmitCost() sim.Time           { return 410 * sim.Nanosecond }  // Fig 12: a reactor is lossless at two SSDs and ≈75 % at four · fig12-2ssd fig12-4ssd
func SPDKCompleteCost() sim.Time         { return 370 * sim.Nanosecond }  // Fig 12: a reactor is lossless at two SSDs and ≈75 % at four · fig12-2ssd fig12-4ssd
func SPDKPollIterCost() sim.Time         { return 60 * sim.Nanosecond }   // model: one empty poll sweep over a queue pair
func SPDKSubmitInstr() float64           { return 430 }                   // instructions · Fig 13: SPDK instructions per submission · fig13-instructions fig13-cycles
func SPDKCompleteInstr() float64         { return 360 }                   // instructions · Fig 13: SPDK instructions per completion · fig13-instructions fig13-cycles
func SPDKPollIterInstr() float64         { return 45 }                    // instructions · Fig 13: instructions per empty poll sweep
func SPDKIPC() float64                   { return 2.6 }                   // instructions/cycle · Fig 13: poll-mode hot loop · fig13-cycles
func RecoveryDeadline() sim.Time         { return 25 * sim.Millisecond }  // model: clears worst-case queueing plus a 16× latency spike (SPDK and BaM)
func SPDKRetryBackoff() sim.Time         { return 100 * sim.Microsecond } // model: first retry delay, doubling per attempt
func SPDKMaxRetries() int                { return 3 }                     // retries · model: re-submissions of a retryable failure
func SPDKFailThreshold() int             { return 4 }                     // timeouts · model: consecutive timeouts that declare a device dead
func CAMPollPickup() sim.Time            { return 300 * sim.Nanosecond }  // model: CPU polling thread notices the GPU doorbell
func CAMGPUPickup() sim.Time             { return 500 * sim.Nanosecond }  // model: GPU notices the region-4 completion
func BaMThreadsPerSSD() int64            { return 44_000 }                // threads · Fig 4: ≥ 5 SSDs take every SM (262 144 threads for 12 SSDs) · fig4-5ssd fig4-1ssd
func BaMQueueDepth() uint32              { return 1024 }                  // entries · §IV: BaM evaluation queue depth
func BaMSubmitLatency() sim.Time         { return 400 * sim.Nanosecond }  // model: warp-serialized SQE publish
func KernelQueueDepth() uint32           { return 64 }                    // entries · model: kernel per-device tag depth
func RAID0Stripe() int64                 { return 128 << 10 }             // B · model: md-RAID0 / EXT4 stripe (kernel stacks and GDS)
func KernelUserPct() int64               { return 6 }                     // % · Fig 3: User layer share of a request
func KernelFSPct() int64                 { return 18 }                    // % · Fig 3: File system layer share · fig3-fs-iomap
func KernelIOMapPct() int64              { return 20 }                    // % · Fig 3: I/O mapping layer share · fig3-fs-iomap
func KernelIOMapPage() sim.Time          { return 400 * sim.Nanosecond }  // model: pinning each 4 KiB page beyond the first
func KernelIRQDelay() sim.Time           { return 4 * sim.Microsecond }   // model: interrupt delivery (POSIX, libaio, io_uring int)
func KernelCompletionShare() float64     { return 0.24 }                  // fraction · Fig 3: completion handling share, interrupt-driven stacks
func KernelPollCompletionShare() float64 { return 0.20 }                  // fraction · Fig 3: completion handling share, io_uring poll
func POSIXRead() sim.Time                { return 5200 * sim.Nanosecond } // Fig 2: POSIX 4 KiB read path · fig2-read-order fig8-posix-flat
func POSIXWrite() sim.Time               { return 8600 * sim.Nanosecond } // Fig 2: POSIX 4 KiB write path
func LibaioRead() sim.Time               { return 3700 * sim.Nanosecond } // Fig 2: libaio 4 KiB read path · fig2-read-order
func LibaioWrite() sim.Time              { return 7200 * sim.Nanosecond } // Fig 2: libaio 4 KiB write path
func URingIntRead() sim.Time             { return 3300 * sim.Nanosecond } // Fig 2: io_uring int 4 KiB read path · fig2-read-order
func URingIntWrite() sim.Time            { return 6800 * sim.Nanosecond } // Fig 2: io_uring int 4 KiB write path
func URingPollRead() sim.Time            { return 2900 * sim.Nanosecond } // Fig 2: io_uring poll 4 KiB read path · fig2-read-order fig2-below-device
func URingPollWrite() sim.Time           { return 6300 * sim.Nanosecond } // Fig 2: io_uring poll 4 KiB write path
func POSIXInstr() float64                { return 5_600 }                 // instructions · Fig 13: POSIX kernel path per 4 KiB request
func LibaioInstr() float64               { return 5_100 }                 // instructions · Fig 13: libaio kernel path per 4 KiB request · fig13-instructions
func URingIntInstr() float64             { return 4_700 }                 // instructions · Fig 13: io_uring int kernel path per 4 KiB request
func URingPollInstr() float64            { return 4_300 }                 // instructions · Fig 13: io_uring poll kernel path per 4 KiB request
func POSIXIPC() float64                  { return 0.55 }                  // instructions/cycle · Fig 13: interrupt-driven, cache-cold
func LibaioIPC() float64                 { return 0.55 }                  // instructions/cycle · Fig 13: interrupt-driven, cache-cold · fig13-cycles
func URingIntIPC() float64               { return 0.6 }                   // instructions/cycle · Fig 13: interrupt-driven, cache-cold
func URingPollIPC() float64              { return 1.1 }                   // instructions/cycle · Fig 13: polled completion
func GDSPageCost() sim.Time              { return 4800 * sim.Nanosecond } // Fig 10: fs/NVFS/CUDA path per 4 KiB page (≈0.8 GB/s ceiling) · fig10bc-gds
func GDSCallCost() sim.Time              { return 12 * sim.Microsecond }  // Fig 10: cuFileRead/Write call overhead
func GNNSampleCost() sim.Time            { return 38 * sim.Nanosecond }   // Fig 1: GPU sampling per unique node over CPU-resident structure · fig1-extract fig9-speedup
func GNNComputeRate() float64            { return 1e12 }                  // FLOP/s · Fig 1, §IV-C: training rate at 128-dim features · fig1-extract fig9-speedup
func SortRate() float64                  { return 4e9 }                   // keys/s · §IV-D: GPU block-sort rate · fig10a-posix-slower
func MergeRate() float64                 { return 8e9 }                   // keys/s · §IV-D: GPU merge rate · abl-fanin-time
func GEMMRate() float64                  { return 100e12 }                // FLOP/s · §IV-D: GPU dense tile rate · fig10bc-order
func KVPrefillFlops() float64            { return 5e9 }                   // FLOP/token · model: prefill kernel cost · kv-ttft
func KVDecodeFlops() float64             { return 5e9 }                   // FLOP/token · model: decode kernel cost · kv-tokens
func KVArrivalGap() sim.Time             { return 200 * sim.Microsecond } // model: session arrival stagger · kv-ttft
func KVBlockTokens() int                 { return 16 }                    // tokens · model: tokens per KV block
func KVBlockBytes() int64                { return 4096 }                  // B · model: KV block per layer, the transfer granule
func KVWindow() int                      { return 2 }                     // blocks · model: recency window attended every step
func KVTopK() int                        { return 2 }                     // blocks · model: older blocks attended per step
func KVEvictBatch() int                  { return 8 }                     // blocks · model: victims per eviction round · kv-step-p99
