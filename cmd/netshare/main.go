// Command netshare trains a NetShare model on a trace CSV (or a built-in
// synthetic dataset) and writes a synthetic trace CSV.
//
// Usage:
//
//	netshare -kind netflow -dataset ugr16 -records 2000 -out synthetic.csv
//	netshare -kind pcap -in real.csv -out synthetic.csv -chunks 5
//	netshare -kind netflow -dataset ugr16 -dp -epsilon-noise 0.7 -out dp.csv
//	netshare -kind netflow -dataset ugr16 -checkpoint-dir ckpt -max-retries 2 -out synthetic.csv
//	netshare -kind netflow -dataset ugr16 -checkpoint-dir ckpt -resume -out synthetic.csv
//	netshare -kind netflow -dataset ugr16 -out synthetic.csv -metrics-out metrics.json
//	netshare -kind netflow -dataset ugr16 -registry reg -save-model ugr16-v1 -out synthetic.csv
//	netshare -kind netflow -registry reg -load-model ugr16-v1 -gen 5000 -out more.csv
//	netshare -kind pcap -ingest-pcap capture.pcap -out synthetic.csv
//	netshare -kind netflow -ingest-watch /var/spool/captures -registry reg -save-model live-v1 -out synthetic.csv
//	netshare -kind netflow -dataset ugr16 -out synthetic.csv -store-out synthetic.store
//	netshare -kind netflow -store-in synthetic.store -out more.csv
//	netshare -kind pcap -ingest-pcap capture.pcap -ingest-store real.store -out synthetic.csv
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/orchestrator"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netshare: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole CLI body and returns errors instead of calling
// log.Fatal so the deferred profile writers always flush.
func run() error {
	var (
		kind      = flag.String("kind", "netflow", "trace kind: netflow or pcap")
		inPath    = flag.String("in", "", "input trace CSV (mutually exclusive with -dataset)")
		dataset   = flag.String("dataset", "", "built-in dataset: ugr16|cidds|ton (netflow) or caida|dc|ca (pcap)")
		records   = flag.Int("records", 2000, "records/packets to synthesize the built-in dataset with")
		outPath   = flag.String("out", "synthetic.csv", "output CSV path")
		genSize   = flag.Int("gen", 2000, "records/packets to generate")
		chunks    = flag.Int("chunks", 5, "number of fixed-time chunks M (1 = NetShare-V0)")
		seedSteps = flag.Int("seed-steps", 600, "seed-chunk generator steps")
		ftSteps   = flag.Int("finetune-steps", 150, "fine-tune generator steps per chunk")
		maxLen    = flag.Int("maxlen", 6, "max sequence length per flow sample")
		seed      = flag.Int64("seed", 1, "random seed")
		format    = flag.String("format", "csv", "output format: csv, pcap (packet traces), or netflow5|netflow9|ipfix (flow traces)")
		cond      = flag.Bool("conditional", false, "train the flow GAN with scenario-label conditioning (flow traces only); the trained model generates per-label slices via -label")
		labelName = flag.String("label", "", "generate only this scenario label (e.g. dos); requires a flow model trained with -conditional")
		storeIn   = flag.String("store-in", "", "input columnar trace store directory (mutually exclusive with -in/-dataset)")
		storeOut  = flag.String("store-out", "", "also write the generated trace as a columnar trace store at this directory")
		savePath  = flag.String("save", "", "save the trained model to this path")
		loadPath  = flag.String("load", "", "skip training; load a model saved with -save")
		regDir    = flag.String("registry", "", "durable model registry directory for -save-model/-load-model")
		saveName  = flag.String("save-model", "", "store the trained model in -registry under this name")
		loadName  = flag.String("load-model", "", "skip training; load this named model from -registry")
		dp        = flag.Bool("dp", false, "train with differential privacy (DP-SGD)")
		dpNoise   = flag.Float64("epsilon-noise", 0.7, "DP-SGD noise multiplier sigma")
		dpTarget  = flag.Float64("target-epsilon", 0, "calibrate sigma for this target epsilon (overrides -epsilon-noise)")
		dpPre     = flag.Bool("dp-pretrain", true, "pre-train on public data before DP fine-tuning")
		ipBase    = flag.String("ip-transform", "", "optional CIDR-style base (e.g. 10.0.0.0/8) to remap generated IPs into")
		par       = flag.Int("parallelism", 0, "training worker count (0 = all CPUs, 1 = serial); any value yields bitwise-identical output for a given -seed")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-chunk training checkpoints (empty disables)")
		resume    = flag.Bool("resume", false, "resume training from -checkpoint-dir, skipping completed chunks")
		maxRetry  = flag.Int("max-retries", 0, "per-chunk retry budget; past it a fine-tune chunk degrades to the seed weights")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile to this path on exit")
		metricsJS = flag.String("metrics-out", "", "write the run's telemetry snapshot (counters, phase timers, per-chunk loss curves) to this JSON path on exit")

		ingestPCAP  = flag.String("ingest-pcap", "", "train on a pcap capture: stream it through the flow assembler instead of -in/-dataset")
		ingestWatch = flag.String("ingest-watch", "", "train on a rotating-capture directory: watch it, ingest completed pcap files, stop after -ingest-quiet of silence")
		ingestQuiet = flag.Duration("ingest-quiet", 2*time.Second, "with -ingest-watch, stop watching after this long without a new completed file")
		ingMaxFlows = flag.Int("ingest-max-flows", 0, "flow-table bound on live flows (0 = default)")
		ingMaxPkts  = flag.Int("ingest-max-flow-packets", 0, "flow-table bound on stored packets per flow (0 = default)")
		ingMaxBuf   = flag.Int("ingest-max-buffered", 0, "flow-table hard bound on total buffered packet records (0 = default)")
		ingIdle     = flag.Duration("ingest-idle-timeout", 0, "flow idle timeout on the capture clock (0 = default 60s)")
		ingShards   = flag.Int("ingest-shards", 0, "flow-table shard count for parallel feeding (0 = 1)")
		ingStore    = flag.String("ingest-store", "", "with -ingest-pcap/-ingest-watch, also persist the assembled real trace as a columnar store at this directory")

		role        = flag.String("role", "standalone", "run mode: standalone, coordinator (submit a cluster job and assemble the result), or worker (lease and train cluster chunks)")
		clusterDir  = flag.String("cluster", "", "shared cluster queue directory for -role coordinator|worker")
		jobID       = flag.String("job", "job-1", "cluster job name for -role coordinator")
		workerID    = flag.String("worker-id", "", "worker name for -role worker (default <hostname>-<pid>)")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "cluster chunk lease duration; a crashed worker's lease is reclaimed after it expires")
		workerQuiet = flag.Duration("worker-quiet", 0, "with -role worker, exit after this long without acquiring work (0 = run until interrupted)")
		coordURL    = flag.String("coordinator-url", "", "with -role worker, also register/heartbeat over this coordinator web API")
	)
	flag.Parse()

	if *par < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", *par)
	}
	if *genSize < 1 {
		return fmt.Errorf("-gen must be >= 1, got %d", *genSize)
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *maxRetry < 0 {
		return fmt.Errorf("-max-retries must be >= 0, got %d", *maxRetry)
	}
	if (*saveName != "" || *loadName != "") && *regDir == "" {
		return fmt.Errorf("-save-model/-load-model require -registry")
	}
	if *ingestPCAP != "" && *ingestWatch != "" {
		return fmt.Errorf("-ingest-pcap and -ingest-watch are mutually exclusive")
	}
	ingesting := *ingestPCAP != "" || *ingestWatch != ""
	if ingesting && (*inPath != "" || *dataset != "") {
		return fmt.Errorf("-ingest-pcap/-ingest-watch replace -in/-dataset")
	}
	if *storeIn != "" && (*inPath != "" || *dataset != "" || ingesting) {
		return fmt.Errorf("-store-in replaces -in/-dataset/-ingest-*")
	}
	if *ingStore != "" && !ingesting {
		return fmt.Errorf("-ingest-store requires -ingest-pcap or -ingest-watch")
	}
	if *loadName != "" && *loadPath != "" {
		return fmt.Errorf("-load and -load-model are mutually exclusive")
	}
	if (*cond || *labelName != "") && *kind != "netflow" {
		return fmt.Errorf("-conditional/-label are flow-only (packet traces carry no scenario labels)")
	}
	var reg *registry.Registry
	if *regDir != "" {
		var err error
		if reg, err = registry.Open(*regDir); err != nil {
			return fmt.Errorf("-registry: %w", err)
		}
	}
	if *par > 0 {
		mat.SetParallelism(*par)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *metricsJS != "" {
		// Deferred so the snapshot lands even when a later stage errors:
		// a failed run's partial counters are exactly what a post-mortem
		// wants to see.
		defer func() {
			if err := writeMetrics(*metricsJS); err != nil {
				log.Printf("-metrics-out: %v", err)
			} else {
				log.Printf("wrote telemetry snapshot to %s", *metricsJS)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Printf("-memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("-memprofile: %v", err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	cfg.Parallelism = *par
	cfg.Chunks = *chunks
	cfg.SeedSteps = *seedSteps
	cfg.FineTuneSteps = *ftSteps
	cfg.MaxLen = *maxLen
	cfg.Seed = *seed
	cfg.Conditional = *cond
	if *dp {
		cfg.Chunks = 1
		noise := *dpNoise
		if *dpTarget > 0 {
			noise = cfg.NoiseForTargetEpsilon(*dpTarget, 1e-5, *records)
			log.Printf("calibrated sigma=%.3f for target epsilon=%.1f over %d DP steps",
				noise, *dpTarget, cfg.DPSteps())
		}
		cfg.DP = &core.DPConfig{
			NoiseMultiplier: noise,
			ClipNorm:        1.0,
			Delta:           1e-5,
			Pretrain:        *dpPre,
			PretrainSteps:   *seedSteps / 2,
		}
	}
	if *role != "standalone" {
		if *dp {
			return fmt.Errorf("-dp is not supported with -role %s (DP keeps its privacy accountant in one process)", *role)
		}
		if ingesting || *storeIn != "" {
			return fmt.Errorf("-ingest-*/-store-in are not supported with -role %s", *role)
		}
		o := clusterOpts{
			dir: *clusterDir, jobID: *jobID, workerID: *workerID,
			ttl: *leaseTTL, quiet: *workerQuiet, coordURL: *coordURL,
			kind: *kind, dataset: *dataset, inPath: *inPath, records: *records,
			cfg: cfg, maxRetry: *maxRetry, genSize: *genSize,
			outPath: *outPath, format: *format, ipBase: *ipBase,
		}
		switch *role {
		case "coordinator":
			return runCoordinator(o)
		case "worker":
			return runWorker(o)
		default:
			return fmt.Errorf("unknown -role %q (want standalone, coordinator, or worker)", *role)
		}
	}

	public := datasets.CAIDAChicago(4000, *seed+500)
	opts := trainOptions(*ckptDir, *resume, *maxRetry)

	// Live ingestion: assemble flows from a capture (or a rotating
	// capture directory) before training, replacing the CSV readers.
	var asm *ingest.Assembler
	if ingesting {
		asm = ingest.New(ingest.Config{
			MaxFlows:           *ingMaxFlows,
			MaxFlowPackets:     *ingMaxPkts,
			MaxBufferedPackets: *ingMaxBuf,
			IdleTimeout:        ingIdle.Microseconds(),
			Shards:             *ingShards,
		})
		if *ingestPCAP != "" {
			if err := asm.IngestFile(*ingestPCAP); err != nil {
				return err
			}
		} else {
			files, err := asm.Watch(context.Background(), ingest.WatchConfig{
				Dir:   *ingestWatch,
				Quiet: *ingestQuiet,
				OnFile: func(path string, err error) {
					if err != nil {
						log.Printf("ingest %s: %v", path, err)
					} else {
						log.Printf("ingested %s", path)
					}
				},
			})
			if err != nil {
				return err
			}
			if files == 0 {
				return fmt.Errorf("-ingest-watch: no completed capture files appeared in %s", *ingestWatch)
			}
		}
		asm.Flush()
		st := asm.Stats()
		log.Printf("ingest: %d packets (%d v4, %d v6, %d non-IP, %d parse errors) -> %d flows (%d idle, %d teardown, %d capacity, %d flush; %d truncated)",
			st.PacketsParsed+st.PacketsNonIP+st.ParseErrors, st.PacketsIPv4, st.PacketsIPv6, st.PacketsNonIP, st.ParseErrors,
			st.FlowsEmitted, st.EvictedIdle, st.EvictedTeardown, st.EvictedCapacity, st.Flushed, st.FlowsTruncated)
		if *ingStore != "" {
			var rows int64
			var err error
			if *kind == "pcap" {
				rows, err = asm.WritePacketStore(*ingStore, store.Options{})
			} else {
				rows, err = asm.WriteFlowStore(*ingStore, store.Options{})
			}
			if err != nil {
				return fmt.Errorf("-ingest-store: %w", err)
			}
			log.Printf("stored %d assembled rows as a columnar store at %s", rows, *ingStore)
		}
	}

	switch *kind {
	case "netflow":
		var syn *core.FlowSynthesizer
		if *loadName != "" {
			framed, info, err := reg.ModelBytes(*loadName)
			if err != nil {
				return fmt.Errorf("-load-model: %w", err)
			}
			if info.Kind != "flow" {
				return fmt.Errorf("-load-model: %q is a %s model, need flow", *loadName, info.Kind)
			}
			if syn, err = core.LoadFlowSynthesizer(bytes.NewReader(framed)); err != nil {
				return fmt.Errorf("-load-model: %w", err)
			}
			syn.SetParallelism(*par)
			log.Printf("loaded model %q from registry %s", *loadName, *regDir)
		} else if *loadPath != "" {
			var err error
			if syn, err = loadFlowModel(*loadPath); err != nil {
				return err
			}
			syn.SetParallelism(*par)
			log.Printf("loaded model from %s", *loadPath)
		} else {
			real, err := loadFlow(asm, *inPath, *storeIn, *dataset, *records, *seed)
			if err != nil {
				return err
			}
			if syn, err = core.TrainFlowSynthesizerOpts(real, public, cfg, opts); err != nil {
				return err
			}
			reportStats(syn.Stats())
		}
		if *savePath != "" {
			if err := saveModel(*savePath, syn.Save); err != nil {
				return err
			}
			log.Printf("saved model to %s", *savePath)
		}
		if *saveName != "" {
			if err := putRegistryModel(reg, *saveName, syn.Save); err != nil {
				return fmt.Errorf("-save-model: %w", err)
			}
			log.Printf("stored model %q in registry %s", *saveName, *regDir)
		}
		gen, err := generateFlow(syn, *genSize, *labelName)
		if err != nil {
			return err
		}
		if *ipBase != "" {
			base, bits, err := parseCIDR(*ipBase)
			if err != nil {
				return err
			}
			core.TransformIPs(gen, base, bits)
		}
		if err := writeFlow(*outPath, gen, *format); err != nil {
			return err
		}
		log.Printf("wrote %d flow records to %s (%s)", len(gen.Records), *outPath, *format)
		if *storeOut != "" {
			if err := store.WriteFlowTrace(*storeOut, gen, store.Options{}); err != nil {
				return fmt.Errorf("-store-out: %w", err)
			}
			log.Printf("wrote columnar store to %s", *storeOut)
		}

	case "pcap":
		var syn *core.PacketSynthesizer
		if *loadName != "" {
			framed, info, err := reg.ModelBytes(*loadName)
			if err != nil {
				return fmt.Errorf("-load-model: %w", err)
			}
			if info.Kind != "packet" {
				return fmt.Errorf("-load-model: %q is a %s model, need packet", *loadName, info.Kind)
			}
			if syn, err = core.LoadPacketSynthesizer(bytes.NewReader(framed)); err != nil {
				return fmt.Errorf("-load-model: %w", err)
			}
			syn.SetParallelism(*par)
			log.Printf("loaded model %q from registry %s", *loadName, *regDir)
		} else if *loadPath != "" {
			var err error
			if syn, err = loadPacketModel(*loadPath); err != nil {
				return err
			}
			syn.SetParallelism(*par)
			log.Printf("loaded model from %s", *loadPath)
		} else {
			real, err := loadPacket(asm, *inPath, *storeIn, *dataset, *records, *seed)
			if err != nil {
				return err
			}
			if syn, err = core.TrainPacketSynthesizerOpts(real, public, cfg, opts); err != nil {
				return err
			}
			reportStats(syn.Stats())
		}
		if *savePath != "" {
			if err := saveModel(*savePath, syn.Save); err != nil {
				return err
			}
			log.Printf("saved model to %s", *savePath)
		}
		if *saveName != "" {
			if err := putRegistryModel(reg, *saveName, syn.Save); err != nil {
				return fmt.Errorf("-save-model: %w", err)
			}
			log.Printf("stored model %q in registry %s", *saveName, *regDir)
		}
		gen := syn.Generate(*genSize)
		if err := writePacket(*outPath, gen, *format); err != nil {
			return err
		}
		log.Printf("wrote %d packets to %s (%s)", len(gen.Packets), *outPath, *format)
		if *storeOut != "" {
			if err := store.WritePacketTrace(*storeOut, gen, store.Options{}); err != nil {
				return fmt.Errorf("-store-out: %w", err)
			}
			log.Printf("wrote columnar store to %s", *storeOut)
		}

	default:
		return fmt.Errorf("unknown -kind %q (want netflow or pcap)", *kind)
	}
	return nil
}

// trainOptions wires the CLI's fault-tolerance flags into the training
// orchestrator, logging retries, resumes, and degradations as they happen.
func trainOptions(ckptDir string, resume bool, maxRetries int) core.TrainOptions {
	if ckptDir == "" && maxRetries == 0 {
		return core.TrainOptions{}
	}
	return core.TrainOptions{Orchestration: &orchestrator.Options{
		Dir:        ckptDir,
		Resume:     resume,
		MaxRetries: maxRetries,
		OnEvent: func(ev orchestrator.Event) {
			switch ev.Kind {
			case orchestrator.EventChunkResumed:
				log.Printf("chunk %d: resumed from checkpoint", ev.Chunk)
			case orchestrator.EventChunkRetry:
				log.Printf("chunk %d: retry %d after error: %v", ev.Chunk, ev.Attempt, ev.Err)
			case orchestrator.EventChunkDegraded:
				log.Printf("chunk %d: retry budget exhausted after %d attempt(s), degrading to seed weights: %v",
					ev.Chunk, ev.Attempt, ev.Err)
			case orchestrator.EventCheckpointError:
				log.Printf("chunk %d: checkpoint I/O error (training continues): %v", ev.Chunk, ev.Err)
			}
		},
	}}
}

func reportStats(st core.Stats) {
	log.Printf("trained %d chunk model(s): cpu=%v wall=%v epsilon=%.2f",
		len(st.ChunkSamples), st.CPUTime.Round(1e6), st.WallTime.Round(1e6), st.Epsilon)
	resumed := 0
	for _, r := range st.ChunkResumed {
		if r {
			resumed++
		}
	}
	if resumed > 0 {
		log.Printf("resumed %d chunk(s) from checkpoints", resumed)
	}
	if deg := st.DegradedChunks(); len(deg) > 0 {
		log.Printf("WARNING: chunk(s) %v degraded to seed weights after exhausting retries", deg)
	}
}

func loadFlow(asm *ingest.Assembler, inPath, storeIn, dataset string, records int, seed int64) (*trace.FlowTrace, error) {
	if asm != nil {
		t := asm.FlowTrace()
		if len(t.Records) == 0 {
			return nil, fmt.Errorf("ingest produced no IPv4 flow records to train on")
		}
		return t, nil
	}
	if storeIn != "" {
		s, err := store.Open(storeIn)
		if err != nil {
			return nil, fmt.Errorf("-store-in: %w", err)
		}
		if s.Kind() != trace.KindNetFlow {
			return nil, fmt.Errorf("-store-in: %s holds a %s trace, need netflow", storeIn, s.Kind())
		}
		return s.FlowRecords()
	}
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadFlowCSV(f)
	}
	if dataset == "" {
		return nil, fmt.Errorf("need -in or -dataset")
	}
	t := datasets.FlowByName(dataset, records, seed)
	if t == nil {
		return nil, fmt.Errorf("unknown netflow dataset %q", dataset)
	}
	return t, nil
}

func loadPacket(asm *ingest.Assembler, inPath, storeIn, dataset string, packets int, seed int64) (*trace.PacketTrace, error) {
	if asm != nil {
		t := asm.PacketTrace()
		if len(t.Packets) == 0 {
			return nil, fmt.Errorf("ingest produced no IPv4 packets to train on")
		}
		return t, nil
	}
	if storeIn != "" {
		s, err := store.Open(storeIn)
		if err != nil {
			return nil, fmt.Errorf("-store-in: %w", err)
		}
		if s.Kind() != trace.KindPCAP {
			return nil, fmt.Errorf("-store-in: %s holds a %s trace, need pcap", storeIn, s.Kind())
		}
		return s.PacketRecords()
	}
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadPacketCSV(f)
	}
	if dataset == "" {
		return nil, fmt.Errorf("need -in or -dataset")
	}
	t := datasets.PacketByName(dataset, packets, seed)
	if t == nil {
		return nil, fmt.Errorf("unknown pcap dataset %q", dataset)
	}
	return t, nil
}

func writeFlow(path string, t *trace.FlowTrace, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "csv":
		return trace.WriteFlowCSV(f, t)
	case "netflow5":
		return trace.WriteNetFlowV5(f, t)
	case "netflow9":
		return trace.WriteNetFlowV9(f, t)
	case "ipfix":
		return trace.WriteIPFIX(f, t)
	default:
		return fmt.Errorf("format %q not supported for flow traces (want csv, netflow5, netflow9, or ipfix)", format)
	}
}

// generateFlow runs unconditional or scenario-pinned generation per the
// -label flag.
func generateFlow(syn *core.FlowSynthesizer, n int, label string) (*trace.FlowTrace, error) {
	if label == "" {
		return syn.Generate(n), nil
	}
	l, ok := trace.ParseLabel(label)
	if !ok {
		return nil, fmt.Errorf("-label: unknown scenario label %q", label)
	}
	if !syn.Conditional() {
		return nil, fmt.Errorf("-label: the model was not trained with -conditional")
	}
	return syn.GenerateLabeled(n, l)
}

func writePacket(path string, t *trace.PacketTrace, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "csv":
		return trace.WritePacketCSV(f, t)
	case "pcap":
		return trace.WritePCAP(f, t)
	default:
		return fmt.Errorf("format %q not supported for packet traces (want csv or pcap)", format)
	}
}

// writeMetrics dumps the global telemetry registry as indented JSON.
func writeMetrics(path string) error {
	data, err := json.MarshalIndent(telemetry.Default.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// saveModel persists a model container atomically: the synthesizer
// serializes into memory, then the bytes land on disk via the shared
// temp-file + fsync + rename discipline, so an interrupted save can
// never leave a torn model under the final name.
func saveModel(path string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	return container.AtomicWrite(container.OSFS{}, path, buf.Bytes())
}

// putRegistryModel stores a trained model in the durable registry.
func putRegistryModel(reg *registry.Registry, name string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	_, err := reg.PutModel(name, buf.Bytes())
	return err
}

func loadFlowModel(path string) (*core.FlowSynthesizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadFlowSynthesizer(f)
}

func loadPacketModel(path string) (*core.PacketSynthesizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadPacketSynthesizer(f)
}

func parseCIDR(s string) (trace.IPv4, int, error) {
	var a, b, c, d, bits int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d/%d", &a, &b, &c, &d, &bits); err != nil {
		return 0, 0, fmt.Errorf("invalid CIDR %q: %w", s, err)
	}
	if bits < 0 || bits > 32 {
		return 0, 0, fmt.Errorf("invalid mask length %d", bits)
	}
	return trace.IPv4FromBytes(byte(a), byte(b), byte(c), byte(d)), bits, nil
}
