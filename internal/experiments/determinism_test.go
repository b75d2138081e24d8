package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"enviromic/internal/chaos"
	"enviromic/internal/core"
	"enviromic/internal/mote"
	"enviromic/internal/sim"
)

// TestSameSeedSameOutput runs each fixed-seed experiment twice in one
// process and requires byte-equal output. Go randomises every map's
// iteration order per range, so a result that hangs on map order — the
// prelude keeper once picked among equal signals that way — differs
// between the two runs.
func TestSameSeedSameOutput(t *testing.T) {
	fig8 := func(seed int64) func() []byte {
		return func() []byte {
			r := Fig8(seed)
			var b bytes.Buffer
			fmt.Fprintf(&b, "coverage=%v corr=%v rate=%v\n", r.Coverage, r.EnvelopeCorr, r.SampleRate)
			b.Write(r.Stitched)
			b.Write(r.Reference)
			return b.Bytes()
		}
	}
	cases := []struct {
		name string
		run  func() []byte
	}{
		{"fig8 seed 1", fig8(1)},
		{"fig8 seed 3", fig8(3)},
		{"prelude ablation", func() []byte {
			spec := ablationSpecs(1)[0]
			if spec.name != "prelude (0.8s event)" {
				t.Fatalf("first ablation is %q, want the prelude's", spec.name)
			}
			return []byte(fmt.Sprintf("with=%v without=%v", spec.run(true), spec.run(false)))
		}},
		{"indoor leader crash", func() []byte {
			sc := &chaos.Scenario{
				Name:   "leader-crash",
				Seed:   7,
				Faults: []chaos.Fault{{Kind: chaos.KindCrash, At: 45 * time.Second, Node: -1, Target: chaos.TargetLeader}},
			}
			opts := QuickIndoorOpts()
			setting := IndoorSetting{Name: "lb-beta2", Mode: core.ModeFull, BetaMax: 2}
			res, err := RunIndoorChaos(setting, opts, sc, chaos.InvariantsConfig{})
			if err != nil {
				t.Fatal(err)
			}
			end := sim.At(opts.Duration)
			var b bytes.Buffer
			fmt.Fprintf(&b, "miss=%v red=%v stored=%d frames=%d kinds=%v\n",
				res.Net.Collector.MissRatioAt(end),
				res.Net.Collector.RedundancyRatioAt(end, mote.DefaultSampleRate),
				res.Net.TotalStoredBytes(), res.Net.Radio.Stats().TotalFrames, res.Net.Radio.Stats().TxByKind)
			for _, node := range res.Net.Nodes {
				fmt.Fprintf(&b, "n%d=%d ", node.ID, node.Mote.Store.BytesUsed())
			}
			fmt.Fprintf(&b, "\n%v\n%s", res.Injector.Log(), res.Checker.Report())
			return b.Bytes()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first, second := c.run(), c.run()
			if !bytes.Equal(first, second) {
				n := min(len(first), len(second), 120)
				t.Fatalf("two runs differ:\n%q\n%q", first[:n], second[:n])
			}
		})
	}
}
