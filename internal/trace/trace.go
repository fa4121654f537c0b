// Package trace generates the evaluation workloads (§5 "Datasets"). The
// paper uses real-world traces (Facebook Hadoop, DCTCP WebSearch, an
// Alibaba microservice call trace) plus two synthetic UDP traces
// (Microbursts, 8K Video). The raw traces are not redistributable, so
// this package synthesizes workloads that match the published flow-size
// CDFs and — critically for a caching paper — the cross-flow
// destination-reuse characteristics the paper itself documents for each
// trace ("Address reuse characteristics").
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/transport"
)

// Config parameterizes workload generation.
type Config struct {
	// VIPs is the VM population (already placed by vnet).
	VIPs []netaddr.VIP
	// Servers is the number of physical servers (for load calibration).
	Servers int
	// HostLinkBps is the server NIC speed.
	HostLinkBps int64
	// Load is the target average network load as a fraction of aggregate
	// host link capacity (the paper uses 0.30).
	Load float64
	// Duration is the traced interval; flow arrivals are Poisson within it.
	Duration simtime.Duration
	// MaxFlows caps the number of generated flows (0 = uncapped).
	MaxFlows int
	// Seed makes generation deterministic.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case len(c.VIPs) < 2:
		return fmt.Errorf("trace: need at least 2 VMs, have %d", len(c.VIPs))
	case c.Servers <= 0:
		return fmt.Errorf("trace: non-positive server count")
	case c.HostLinkBps <= 0:
		return fmt.Errorf("trace: non-positive link speed")
	case c.Load <= 0 || c.Load > 1:
		return fmt.Errorf("trace: load %v outside (0,1]", c.Load)
	case c.Duration <= 0:
		return fmt.Errorf("trace: non-positive duration")
	}
	return nil
}

// Workload is a generated set of flows ready to feed the transport agent.
type Workload struct {
	Name  string
	Flows []transport.FlowSpec
}

// TotalBytes sums flow sizes (TCP) and datagram payloads (UDP).
func (w *Workload) TotalBytes() int64 {
	var n int64
	for i := range w.Flows {
		f := &w.Flows[i]
		if f.Proto == transport.TCP {
			n += int64(f.Bytes)
		} else {
			n += int64(f.Packets) * int64(f.PacketPayload)
		}
	}
	return n
}

// poissonStarts draws n flow start times from a homogeneous Poisson
// process over the duration (sorted).
func poissonStarts(n int, d simtime.Duration, rng *rand.Rand) []simtime.Time {
	out := make([]simtime.Time, n)
	for i := range out {
		out[i] = simtime.Time(rng.Int63n(int64(d)))
	}
	slices.Sort(out)
	return out
}

// flowCount calibrates the number of flows so that total offered bytes =
// Load × Servers × HostLinkBps × Duration.
func (c Config) flowCount(meanFlowBytes float64) int {
	budget := c.Load * float64(c.Servers) * float64(c.HostLinkBps) / 8 * c.Duration.Seconds()
	n := int(budget / meanFlowBytes)
	if n < 1 {
		n = 1
	}
	if c.MaxFlows > 0 && n > c.MaxFlows {
		n = c.MaxFlows
	}
	return n
}

// pickSrcNot draws a uniform source VIP different from dst.
func pickSrcNot(vips []netaddr.VIP, dst netaddr.VIP, rng *rand.Rand) netaddr.VIP {
	for {
		src := vips[rng.Intn(len(vips))]
		if src != dst {
			return src
		}
	}
}

// Hadoop generates the Hadoop-like workload: short TCP flows with high
// cross-flow destination reuse (nearly every VM serves as a destination
// in multiple flows), matching the paper's reuse characterization.
func Hadoop(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cdf := HadoopCDF()
	n := cfg.flowCount(cdf.Mean())
	starts := poissonStarts(n, cfg.Duration, rng)
	w := &Workload{Name: "hadoop", Flows: make([]transport.FlowSpec, 0, n)}
	for i := 0; i < n; i++ {
		// Destinations uniform over the whole population: with ~10 flows
		// per VM this yields the near-universal ≥2-flow reuse reported.
		dst := cfg.VIPs[rng.Intn(len(cfg.VIPs))]
		src := pickSrcNot(cfg.VIPs, dst, rng)
		w.Flows = append(w.Flows, transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.TCP,
			Bytes: int(cdf.Sample(rng)) + 1, Start: starts[i],
		})
	}
	return w, nil
}

// WebSearch generates the WebSearch-like workload: mostly heavy TCP
// flows with minimal cross-flow destination sharing (~48% of VMs are a
// destination at least once; few repeat).
func WebSearch(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cdf := WebSearchCDF()
	n := cfg.flowCount(cdf.Mean())
	starts := poissonStarts(n, cfg.Duration, rng)
	// Destination model: mostly fresh VMs (drawn from a shuffled pool
	// capped at 48% of the population — the paper's coverage), with a
	// small reuse probability, reproducing "minimal cross-flow
	// destination sharing".
	pool := append([]netaddr.VIP(nil), cfg.VIPs...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:max(1, len(pool)*48/100)]
	next := 0
	var used []netaddr.VIP
	w := &Workload{Name: "websearch", Flows: make([]transport.FlowSpec, 0, n)}
	for i := 0; i < n; i++ {
		var dst netaddr.VIP
		if len(used) > 0 && (next >= len(pool) || rng.Float64() < 0.25) {
			dst = used[rng.Intn(len(used))]
		} else {
			dst = pool[next]
			next++
			used = append(used, dst)
		}
		src := pickSrcNot(cfg.VIPs, dst, rng)
		w.Flows = append(w.Flows, transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.TCP,
			Bytes: int(cdf.Sample(rng)) + 1, Start: starts[i],
		})
	}
	return w, nil
}

// Alibaba generates the microservice RPC workload: many small TCP
// request flows whose destinations follow a Zipf popularity law — the
// "over 95% of requests processed by 5% of microservices" skew [36] that
// gives the trace its large cross-flow destination reuse.
func Alibaba(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cdf := AlibabaRPCCDF()
	n := cfg.flowCount(cdf.Mean())
	starts := poissonStarts(n, cfg.Duration, rng)
	// Zipf over a random permutation of the VM population; only ~24% of
	// VMs ever appear as destinations, matching the paper.
	perm := rng.Perm(len(cfg.VIPs))
	popSize := len(cfg.VIPs) / 4
	if popSize < 1 {
		popSize = 1
	}
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(popSize-1))
	w := &Workload{Name: "alibaba", Flows: make([]transport.FlowSpec, 0, n)}
	for i := 0; i < n; i++ {
		dst := cfg.VIPs[perm[int(zipf.Uint64())]]
		src := pickSrcNot(cfg.VIPs, dst, rng)
		w.Flows = append(w.Flows, transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.TCP,
			Bytes: int(cdf.Sample(rng)) + 1, Start: starts[i],
		})
	}
	return w, nil
}

// Microbursts generates the synthetic UDP microburst trace: bursts of
// mice datagrams with a 99th-percentile burst duration of ~158 µs and
// moderately skewed destination reuse.
func Microbursts(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const (
		payload  = 500
		interval = simtime.Microsecond // per-packet spacing within a burst
	)
	// Geometric burst lengths: P99 ≈ 158 µs ⇒ ~158 packets at 1 µs
	// spacing ⇒ mean ≈ 158/ln(100) ≈ 34 packets.
	meanBurst := 34.0
	meanBytes := meanBurst * payload
	n := cfg.flowCount(meanBytes)
	starts := poissonStarts(n, cfg.Duration, rng)
	perm := rng.Perm(len(cfg.VIPs))
	popSize := len(cfg.VIPs) / 2
	if popSize < 1 {
		popSize = 1
	}
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(popSize-1))
	w := &Workload{Name: "microbursts", Flows: make([]transport.FlowSpec, 0, n)}
	for i := 0; i < n; i++ {
		dst := cfg.VIPs[perm[int(zipf.Uint64())]]
		src := pickSrcNot(cfg.VIPs, dst, rng)
		burst := 1 + int(math.Round(rng.ExpFloat64()*meanBurst))
		w.Flows = append(w.Flows, transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.UDP,
			Packets: burst, PacketPayload: payload, Interval: interval,
			Start: starts[i],
		})
	}
	return w, nil
}

// Video generates the synthetic 8K-video trace: 64 constant-bit-rate
// 48 Mbps UDP senders with zero destination reuse.
func Video(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.VIPs) < 128 {
		return nil, fmt.Errorf("trace: video needs >= 128 VMs, have %d", len(cfg.VIPs))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const (
		senders = 64
		rateBps = 48e6
		payload = 1200
	)
	interval := simtime.Duration(float64(payload*8) / rateBps * float64(simtime.Second))
	packets := int(int64(cfg.Duration) / int64(interval))
	if packets < 1 {
		packets = 1
	}
	// Disjoint sender/receiver pairs: no destination reuse at all.
	perm := rng.Perm(len(cfg.VIPs))
	w := &Workload{Name: "video"}
	for i := 0; i < senders; i++ {
		src := cfg.VIPs[perm[2*i]]
		dst := cfg.VIPs[perm[2*i+1]]
		w.Flows = append(w.Flows, transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.UDP,
			Packets: packets, PacketPayload: payload, Interval: interval,
			Start: simtime.Time(rng.Int63n(int64(interval))),
		})
	}
	return w, nil
}

// Incast generates the §5.2 VM-migration workload: `senders` UDP sources
// on distinct servers all targeting one destination VM, totalPackets
// datagrams over the duration.
func Incast(dst netaddr.VIP, srcs []netaddr.VIP, totalPackets int, payload int, d simtime.Duration) *Workload {
	w := &Workload{Name: "incast"}
	perSender := totalPackets / len(srcs)
	interval := simtime.Duration(int64(d) / int64(perSender))
	for i, src := range srcs {
		w.Flows = append(w.Flows, transport.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst, Proto: transport.UDP,
			Packets: perSender, PacketPayload: payload, Interval: interval,
			Start: simtime.Time(int64(i) * int64(interval) / int64(len(srcs))),
		})
	}
	return w
}

// Generators maps trace names to constructors, for CLI use.
var Generators = map[string]func(Config) (*Workload, error){
	"hadoop":      Hadoop,
	"websearch":   WebSearch,
	"alibaba":     Alibaba,
	"microbursts": Microbursts,
	"video":       Video,
}
