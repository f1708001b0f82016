package scenario

import (
	"math"
	"time"

	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/sim"
)

// compiledClass is one traffic class with its phy tables resolved.
type compiledClass struct {
	interval time.Duration
	table    *phy.ErrorTable
	airt     *phy.Airtimes
}

// compiledHerd is one herd with profile and classes resolved.
type compiledHerd struct {
	prof    MobilityProfile
	classes []compiledClass
}

// state is everything a run shares across clients: the spec, the AP
// index, and (with contention) the per-AP medium occupancy.
type state struct {
	sc    Scenario
	herds []compiledHerd
	ix    *apIndex
	// look resolves the serving AP: the grid index in the event engine,
	// the full linear scan in the slot-driven oracle.
	look func(x, y float64) (int32, float64)
	// busy[ap] is when the AP's medium frees (contention only).
	busy []time.Duration
}

// client is one roaming station. All its randomness comes from its own
// splitmix64 stream, and its arrivals are processed in time order by
// both engines, so its entire trajectory — movement, rate picks, packet
// fates — is a pure function of its seed, independent of every other
// client (until contention couples them through state.busy).
type client struct {
	rng  parallel.RNG
	herd int32
	ap   int32
	x, y float64
	// sin and cos of the heading (radians clockwise from north), set
	// once per leg by turn.
	sin, cos float64
	speed    float64 // m/s on the current leg
	togo     float64 // metres remaining on the current leg
	at       time.Duration
	// next[k] is class k's next arrival time.
	next []time.Duration
	m    Metrics
}

// compile applies defaults and builds the shared state and the clients
// with global index in [lo, hi); every client's seed and init draws
// come from its own stream keyed by global index, so a chunk's clients
// are bit-identical to the same clients of a full compile.
func compile(sc Scenario, lo, hi int) (*state, []client) {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	if sc.Duration <= 0 {
		sc.Duration = 30 * time.Second
	}
	if sc.SlotDur <= 0 {
		sc.SlotDur = 100 * time.Millisecond
	}
	if sc.Radio.RangeM <= 0 {
		sc.Radio = DefaultRadio()
	}
	st := &state{sc: sc, ix: newAPIndex(sc.Grid, sc.Radio)}
	if sc.Contention {
		st.busy = make([]time.Duration, sc.APCount())
	}
	for _, h := range sc.Herds {
		ch := compiledHerd{prof: h.Mobility}
		for _, tc := range h.Traffic {
			ch.classes = append(ch.classes, compiledClass{
				interval: tc.Interval,
				table:    phy.ErrorTableFor(tc.Bytes),
				airt:     phy.AirtimesFor(tc.Bytes),
			})
		}
		st.herds = append(st.herds, ch)
	}

	area := sc.Area()
	stream := parallel.NewSeedStream(sc.Seed).Derive("scenario/" + sc.Name + "/clients")
	clients := make([]client, 0, hi-lo)
	i := 0
	for hix, h := range sc.Herds {
		for j := 0; j < h.Clients; j++ {
			gi := i
			i++
			if gi < lo || gi >= hi {
				continue
			}
			clients = append(clients, client{})
			c := &clients[len(clients)-1]
			c.rng = parallel.NewRNG(stream.Seed(gi))
			c.herd = int32(hix)
			c.ap = -1
			c.x = c.rng.Float64() * area.Width
			c.y = c.rng.Float64() * area.Height
			if !h.Mobility.Static() {
				c.turn(c.newHeading(&st.herds[hix].prof))
				c.speed = c.newSpeed(&st.herds[hix].prof)
				c.togo = c.newLeg(&st.herds[hix].prof)
			}
			c.next = make([]time.Duration, len(h.Traffic))
			for k, tc := range h.Traffic {
				// Random phase inside the first interval, so a herd's
				// clients do not transmit in lockstep.
				c.next[k] = time.Duration(c.rng.Float64() * float64(tc.Interval))
			}
		}
	}
	return st, clients
}

// newHeading draws a road azimuth per the profile: continuous, or
// quantised with route jitter.
func (c *client) newHeading(p *MobilityProfile) float64 {
	if p.RoadHeadings > 0 {
		road := float64(int(c.rng.Float64()*float64(p.RoadHeadings))) * (2 * math.Pi / float64(p.RoadHeadings))
		if p.RouteJitterDeg > 0 {
			road += (c.rng.Float64() - 0.5) * p.RouteJitterDeg * math.Pi / 180
		}
		return road
	}
	return c.rng.Float64() * 2 * math.Pi
}

// turn sets the heading of a new leg. advance reads only its sine and
// cosine, which change only here.
func (c *client) turn(hdg float64) {
	c.sin, c.cos = math.Sin(hdg), math.Cos(hdg)
}

// newSpeed draws the leg speed, floored at walking pace like
// internal/vehicular.
func (c *client) newSpeed(p *MobilityProfile) float64 {
	return math.Max(2, p.SpeedMps+c.rng.NormFloat64()*p.SpeedJitter)
}

// newLeg draws an exponential leg length (parallel.RNG has no
// ExpFloat64; inverse transform of the uniform does the same).
func (c *client) newLeg(p *MobilityProfile) float64 {
	return -math.Log(1-c.rng.Float64()) * p.MeanSegment
}

// advance moves the client to time to: straight along its current leg,
// turning onto fresh legs as they end, wrapping toroidally. The draw
// sequence depends only on the client's own arrival times, which both
// engines visit identically.
func (c *client) advance(to time.Duration, p *MobilityProfile, area Area) {
	if p.Static() || to <= c.at {
		c.at = to
		return
	}
	dist := c.speed * (to - c.at).Seconds()
	c.at = to
	for dist > 0 {
		move := dist
		if move > c.togo {
			move = c.togo
		}
		c.x = wrap(c.x+move*c.sin, area.Width)
		c.y = wrap(c.y+move*c.cos, area.Height)
		c.togo -= move
		dist -= move
		if c.togo <= 0 {
			c.turn(c.newHeading(p))
			c.speed = c.newSpeed(p)
			c.togo = c.newLeg(p)
		}
	}
}

func wrap(x, max float64) float64 {
	x = math.Mod(x, max)
	if x < 0 {
		x += max
	}
	return x
}

// nextArrival returns the client's earliest pending arrival and its
// class (lowest class wins ties), the one total order both engines
// walk.
func (c *client) nextArrival() (time.Duration, int) {
	bt, bk := c.next[0], 0
	for k := 1; k < len(c.next); k++ {
		if c.next[k] < bt {
			bt, bk = c.next[k], k
		}
	}
	return bt, bk
}

// step processes one packet arrival of class k at time t: move, pick
// the serving AP, run the MAC exchange, schedule the class's next
// arrival.
func (c *client) step(t time.Duration, k int, st *state) {
	h := &st.herds[c.herd]
	c.advance(t, &h.prof, st.sc.Area())
	best, d2 := st.look(c.x, c.y)
	if best != c.ap {
		if best >= 0 && c.ap >= 0 {
			c.m.Handoffs++
		}
		c.ap = best
	}
	cl := &h.classes[k]
	c.m.Arrivals++
	if best < 0 {
		c.m.OutOfRange++
		c.m.Lost++
	} else {
		radio := &st.sc.Radio
		snr := radio.RefSNR - 10*radio.PathLossExp*math.Log10(math.Max(math.Sqrt(d2), 1))
		meas := snr + c.rng.NormFloat64()*radio.SNRNoise
		r := cl.table.BestRate(meas)
		p := cl.table.DeliveryProb(r, snr)
		tx := t
		if st.busy != nil {
			if b := st.busy[best]; b > tx {
				c.m.DeferredNs += int64(b - tx)
				tx = b
			}
		}
		delivered := false
		for a := 0; a <= radio.RetryLimit; a++ {
			c.m.Attempts++
			c.m.RateCounts[r]++
			if c.rng.Float64() < p {
				c.m.AirtimeNs += int64(cl.airt.Frame[r])
				tx += cl.airt.Frame[r]
				delivered = true
				break
			}
			c.m.AirtimeNs += int64(cl.airt.Failed[r])
			tx += cl.airt.Failed[r]
		}
		if st.busy != nil {
			st.busy[best] = tx
		}
		if delivered {
			c.m.Delivered++
		} else {
			c.m.Lost++
		}
	}
	c.next[k] = t + cl.interval
}

// finish merges per-client metrics in client order — identical grouping
// in both engines — into the Result.
func finish(st *state, clients []client, events int64) Result {
	res := Result{Events: events, APs: st.sc.APCount(), Clients: len(clients)}
	for i := range clients {
		res.Metrics.add(&clients[i].m)
	}
	return res
}

// NetDisplacement measures the mean toroidal net displacement of n
// independent walkers following profile p for dur. The oracle
// differential uses it to compare the scenario road model against
// internal/vehicular's slot-stepped one: with matched speed and
// segment parameters the two must produce statistically
// indistinguishable displacement.
func NetDisplacement(p MobilityProfile, area Area, seed int64, n int, dur time.Duration) float64 {
	stream := parallel.NewSeedStream(seed).Derive("scenario/netdisp")
	var sum float64
	for i := 0; i < n; i++ {
		c := client{rng: parallel.NewRNG(stream.Seed(i))}
		c.x = c.rng.Float64() * area.Width
		c.y = c.rng.Float64() * area.Height
		x0, y0 := c.x, c.y
		c.turn(c.newHeading(&p))
		c.speed = c.newSpeed(&p)
		c.togo = c.newLeg(&p)
		c.advance(dur, &p, area)
		dx := toroidalDelta(c.x-x0, area.Width)
		dy := toroidalDelta(c.y-y0, area.Height)
		sum += math.Sqrt(dx*dx + dy*dy)
	}
	return sum / float64(n)
}

// toroidalDelta folds a coordinate difference onto the torus' shortest
// arc.
func toroidalDelta(d, size float64) float64 {
	if d > size/2 {
		d -= size
	}
	if d < -size/2 {
		d += size
	}
	return d
}

// wheelFor sizes the timer wheel to the scenario's traffic: slots
// around a quarter of the shortest inter-arrival (within 100 µs–10 ms),
// and the fewest slots, a power of two up to 4096, whose horizon covers
// the longest inter-arrival plus the slot being drained. Every re-armed
// arrival then lands in a slot, and each slot's buffer is reused once
// per revolution instead of being grown once and dropped; overflow
// handles the rest.
func wheelFor(sc Scenario) *sim.Engine {
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for _, h := range sc.Herds {
		for _, tc := range h.Traffic {
			lo, hi = min(lo, tc.Interval), max(hi, tc.Interval)
		}
	}
	slot := min(max(lo/4, 100*time.Microsecond), 10*time.Millisecond)
	n := 1
	for n < 4096 && time.Duration(n)*slot < hi+slot {
		n *= 2
	}
	return sim.NewWheel(slot, n)
}

// Run executes the scenario on the event-driven engine: every client
// re-arms its one event for its next arrival on the timer wheel and
// resolves its AP on the AP lattice. Cost is proportional to packet
// events — APs and clients that exchange no traffic contribute nothing
// but memory.
func Run(sc Scenario) Result {
	return RunChunk(sc, 0, sc.ClientCount())
}

// RunChunk runs only the clients with global index in [lo, hi) on the
// event engine. Because every client's randomness is its own indexed
// stream, merging the Metrics of any disjoint chunk cover of
// [0, ClientCount()) — in chunk order — reproduces Run's Metrics
// byte-for-byte. That is what lets a single city-scale run shard
// across fleet workers as one trial per chunk. Contention couples clients
// through the shared medium, so chunking a contended scenario would
// silently change its physics; it panics instead.
func RunChunk(sc Scenario, lo, hi int) Result {
	if sc.Contention && (lo != 0 || hi != sc.ClientCount()) {
		panic("scenario: RunChunk on a contended scenario (clients are coupled; chunks would not compose)")
	}
	st, clients := compile(sc, lo, hi)
	st.look = st.ix.best
	eng := wheelFor(st.sc)
	var events int64
	evs := make([]*sim.Event, len(clients))
	for i := range clients {
		c := &clients[i]
		t, _ := c.nextArrival()
		if t >= st.sc.Duration {
			continue
		}
		evs[i] = eng.At(t, func() {
			t, k := c.nextArrival()
			c.step(t, k, st)
			events++
			if nt, _ := c.nextArrival(); nt < st.sc.Duration {
				evs[i] = eng.Reschedule(evs[i], nt)
			}
		})
	}
	eng.RunUntil(st.sc.Duration)
	return finish(st, clients, events)
}

// RunSlotted executes the scenario on the slot-driven oracle: an outer
// loop over fixed slots, an inner loop over every client per slot, and
// a full linear AP scan per packet — cost scales with time × clients ×
// APs, the paper-scale structure the event engine exists to escape.
// For contention-free scenarios its Metrics are byte-identical to
// Run's.
func RunSlotted(sc Scenario) Result {
	st, clients := compile(sc, 0, sc.ClientCount())
	st.look = st.ix.bestLinear
	var events int64
	for start := time.Duration(0); start < st.sc.Duration; start += st.sc.SlotDur {
		end := start + st.sc.SlotDur
		if end > st.sc.Duration {
			end = st.sc.Duration
		}
		for i := range clients {
			c := &clients[i]
			for {
				t, k := c.nextArrival()
				if t >= end {
					break
				}
				c.step(t, k, st)
				events++
			}
		}
	}
	return finish(st, clients, events)
}
