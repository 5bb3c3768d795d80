// Command ddtbench regenerates every table and figure of the paper's
// evaluation from the simulators in this repository.
//
// Usage:
//
//	ddtbench -fig all            # every figure and ablation
//	ddtbench -fig 8 -msg 4194304 # one figure at a chosen message size
//	ddtbench -fig 16             # the full application sweep
//
// Figure ids: 2, 8, 9c, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, cluster,
// ablations, alltoall, haloexchange, haloexchange64, haloscaling, haloscaling512, incast.
//
// Every simulation runs on one executor (nic.RunExchange, plus the sharded
// cluster receive and the sharded LogGOPS replay), whose width follows
// GOMAXPROCS. Outputs are byte-identical at any width: the determinism CI
// job renders them at GOMAXPROCS=1 and 4 and diffs both against the same
// goldens.
package main

import (
	"flag"
	"fmt"
	"os"

	"spinddt/internal/apps"
	"spinddt/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (2|8|9b|9c|10|11|12|13|14|15|16|17|18|19|cluster|ablations|alltoall|haloexchange|haloexchange64|haloscaling|haloscaling512|incast|all) or the plans snapshot (plans, not in all)")
	msg := flag.Int64("msg", 4<<20, "message size in bytes for the microbenchmarks")
	fftN := flag.Int("fft-n", 20480, "FFT2D matrix dimension for Fig. 19")
	flag.Parse()

	if err := run(*fig, *msg, *fftN); err != nil {
		fmt.Fprintln(os.Stderr, "ddtbench:", err)
		os.Exit(1)
	}
}

func run(fig string, msg int64, fftN int) error {
	all := fig == "all"
	did := false

	show := func(t fmt.Stringer, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t)
		did = true
		return nil
	}

	if all || fig == "2" {
		if err := show(experiments.Fig02Latency()); err != nil {
			return err
		}
	}
	if all || fig == "8" {
		if err := show(experiments.Fig08Throughput(msg, nil)); err != nil {
			return err
		}
	}
	if all || fig == "9b" {
		if err := show(experiments.Fig09bArea(), nil); err != nil {
			return err
		}
	}
	if all || fig == "9c" {
		if err := show(experiments.Fig09cPULPBandwidth(), nil); err != nil {
			return err
		}
	}
	if all || fig == "10" {
		if err := show(experiments.Fig10PULPvsARM(), nil); err != nil {
			return err
		}
	}
	if all || fig == "11" {
		if err := show(experiments.Fig11PULPIPC(), nil); err != nil {
			return err
		}
	}
	if all || fig == "12" {
		if err := show(experiments.Fig12HandlerBreakdown(msg)); err != nil {
			return err
		}
	}
	if all || fig == "13" {
		a, b, c, err := experiments.Fig13Scalability(msg)
		if err != nil {
			return err
		}
		fmt.Println(a)
		fmt.Println(b)
		fmt.Println(c)
		did = true
	}
	if all || fig == "14" {
		if err := show(experiments.Fig14DMAQueue(msg)); err != nil {
			return err
		}
	}
	if all || fig == "15" {
		if err := show(experiments.Fig15DMAQueueOverTime(msg, 16)); err != nil {
			return err
		}
	}
	if all || fig == "16" || fig == "17" || fig == "18" {
		results, err := experiments.RunApps(apps.All())
		if err != nil {
			return err
		}
		if all || fig == "16" {
			fmt.Println(experiments.Fig16AppSpeedups(results))
		}
		if all || fig == "17" {
			fmt.Println(experiments.Fig17Traffic(results))
		}
		if all || fig == "18" {
			fmt.Println(experiments.Fig18Amortization(results))
		}
		did = true
	}
	if all || fig == "cluster" {
		if err := show(experiments.ShardedClusterExchange(8, msg)); err != nil {
			return err
		}
	}
	if all || fig == "19" {
		_, t, err := experiments.Fig19FFT2D(fftN, nil)
		if err != nil {
			return err
		}
		fmt.Println(t)
		did = true
	}
	if all || fig == "ablations" {
		if err := show(experiments.AblationEpsilon(msg, 512)); err != nil {
			return err
		}
		if err := show(experiments.AblationDeltaP(msg, 512)); err != nil {
			return err
		}
		if err := show(experiments.AblationOutOfOrder(msg/4, 512)); err != nil {
			return err
		}
		if err := show(experiments.AblationNormalization()); err != nil {
			return err
		}
		if err := show(experiments.AblationSender(msg, 512)); err != nil {
			return err
		}
	}
	if all || fig == "alltoall" {
		if err := show(experiments.AlltoallExchange(8, msg)); err != nil {
			return err
		}
	}
	if all || fig == "haloexchange" {
		if err := show(experiments.HaloExchange(8, msg)); err != nil {
			return err
		}
	}
	if all || fig == "haloexchange64" {
		if err := show(experiments.HaloExchange(64, 256<<10)); err != nil {
			return err
		}
	}
	if all || fig == "haloscaling" {
		if err := show(experiments.HaloWeakScaling(64, 256<<10)); err != nil {
			return err
		}
	}
	// Paper-scale weak scaling: the ring doubles to 512 ranks. The message
	// drops to 64 KiB so the figure's live buffers stay in the hundreds of
	// megabytes (1024 sources + 1024 destinations of ~2x message extent).
	if all || fig == "haloscaling512" {
		if err := show(experiments.HaloWeakScaling(512, 64<<10)); err != nil {
			return err
		}
	}
	if all || fig == "incast" {
		if err := show(experiments.Incast(32, 256<<10)); err != nil {
			return err
		}
	}
	// The plan listing is a snapshot golden with its own target (`make
	// plans-golden`), not a paper figure: it is deliberately NOT part of
	// `-fig all` so the figure goldens stay exactly the paper's evaluation.
	if fig == "plans" {
		if err := show(experiments.PlanReport()); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
