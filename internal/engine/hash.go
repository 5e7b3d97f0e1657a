package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"strconv"

	"godpm/internal/acpi"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// fingerprintVersion is folded into every key so a change to the encoding
// (or to the meaning of a config field) invalidates old cache entries.
// Bump it whenever soc.Config grows a result-affecting field, or when
// soc.Result grows a field (stale disk entries would otherwise deserialise
// with the zero value and masquerade as computed results).
//
// v3: soc.Config lost its TraceVCD/TraceCSV writer fields (instrumentation
// moved to observers, which never affect the Result) and soc.Result gained
// StopReason.
//
// v4: soc.IPSpec gained Gen (a workload generator spec materialized during
// normalization). The spec's parameters are folded into the key alongside
// the expanded workload.
//
// v5: the fmt-rendered text encoding was replaced by the binary keyEncoder.
// The hashed fields are v4's; only the bytes (and so every key) changed.
const fingerprintVersion = "godpm-config-v5"

// Key domains: keys of different kinds never collide, even over equal
// encodings.
const (
	domainConfig     = "config"
	domainForkPrefix = "forkprefix"
	domainStops      = "stops"
)

// Fingerprint returns the canonical content hash of a simulation
// configuration, usable as a cache key: two configs hash equally iff they
// describe the same simulation. The config is normalized first, so a field
// left zero and the same field set to its documented default are the same
// key. Config is pure value data — every field affects the Result, so all
// of them are hashed.
func Fingerprint(cfg soc.Config) (string, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return "", err
	}
	return configKey(domainConfig, &norm), nil
}

// configKey hashes the encoding of an already-normalized config.
func configKey(domain string, c *soc.Config) string {
	e := newKeyEncoder(domain, encodedSizeHint(c))
	e.config(c)
	return e.sum()
}

// jobKey is the cache key of one job: the config fingerprint, extended
// with the stop conditions' Reason strings when the job carries any —
// stopping early changes the Result, so `A1` and `A1 until battery death`
// must never share a cache slot. Observers are deliberately excluded: they
// do not affect the Result.
func jobKey(job Job) (string, error) {
	key, err := Fingerprint(job.Config)
	if err != nil || len(job.Options.StopWhen) == 0 {
		return key, err
	}
	e := newKeyEncoder(domainStops, 128)
	e.str(key)
	e.int(len(job.Options.StopWhen))
	for _, c := range job.Options.StopWhen {
		e.str(c.Reason)
	}
	return e.sum(), nil
}

// Field tags of the key encoding. Every config field group is preceded by
// its tag, so adjacent fields cannot alias and the optional sections (the
// regulator, the rule table, a generator spec) are unambiguous whether
// present or absent.
const (
	tagPolicy byte = iota + 1
	tagUseGEM
	tagGEM
	tagBattery
	tagThermal
	tagInitialTemp
	tagPerIPThermal
	tagThermalNet
	tagBus
	tagBusWords
	tagTimeout
	tagGreedy
	tagSample
	tagHorizon
	tagBaseClock
	tagRegulator
	tagLEM
	tagLEMTable
	tagIPs
	tagIP
	tagProfile
	tagGen
	tagSequence
	tagArrivals
)

// itemBytes is the encoded size of one Sequence item or Arrival.
const itemBytes = 6 * 8

// keyEncoder builds the binary key encoding: fixed-width little-endian
// integers, floats as their IEEE-754 bits, length-prefixed strings and
// slices. The whole encoding is hashed with one SHA-256 call.
type keyEncoder struct{ buf []byte }

func newKeyEncoder(domain string, sizeHint int) *keyEncoder {
	e := &keyEncoder{buf: make([]byte, 0, sizeHint)}
	e.str(fingerprintVersion)
	e.str(domain)
	return e
}

// encodedSizeHint over-estimates a normalized config's encoding so the
// buffer is allocated once.
func encodedSizeHint(c *soc.Config) int {
	n := 1024
	for i := range c.IPs {
		ip := &c.IPs[i]
		n += 2048 + len(ip.Name) + itemBytes*(len(ip.Sequence)+len(ip.Arrivals)+len(ip.Gen.Trace))
	}
	return n
}

func (e *keyEncoder) sum() string {
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:])
}

func (e *keyEncoder) tag(t byte)         { e.buf = append(e.buf, t) }
func (e *keyEncoder) u64(v uint64)       { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *keyEncoder) int(v int)          { e.u64(uint64(v)) }
func (e *keyEncoder) state(s acpi.State) { e.u64(uint64(s)) }

// f64 and time write a fixed count of values: callers pass whole field
// groups, so no length prefix is needed.
func (e *keyEncoder) f64(vs ...float64) {
	for _, v := range vs {
		e.u64(math.Float64bits(v))
	}
}

func (e *keyEncoder) time(vs ...sim.Time) {
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

func (e *keyEncoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *keyEncoder) str(s string) {
	e.int(len(s))
	e.buf = append(e.buf, s...)
}

// weights writes a length-prefixed weight array.
func (e *keyEncoder) weights(vs []float64) {
	e.int(len(vs))
	e.f64(vs...)
}

// config encodes every result-affecting field of a normalized config.
func (e *keyEncoder) config(c *soc.Config) {
	e.tag(tagPolicy)
	e.str(string(c.Policy))
	e.tag(tagUseGEM)
	e.bool(c.UseGEM)
	e.tag(tagGEM)
	e.int(c.GEM.HighPriorityCutoff)
	e.f64(c.GEM.BusOccupancyLimit)

	b := &c.Battery
	e.tag(tagBattery)
	e.str(b.Kind)
	e.bool(b.Mains)
	e.f64(b.CapacityJ, b.InitialSoC, b.RateK, b.RefPower, b.KiBaMC, b.KiBaMK,
		b.PeukertExponent, b.PeukertRefPower)

	th := &c.Thermal
	e.tag(tagThermal)
	e.f64(th.AmbientC, th.RthKperW, th.CthJperK, th.FanFactor, th.MediumAboveC,
		th.HighAboveC, th.HysteresisC)
	e.tag(tagInitialTemp)
	e.f64(c.InitialTempC)
	e.tag(tagPerIPThermal)
	e.bool(c.PerIPThermal)
	tn := &c.ThermalNetwork
	e.tag(tagThermalNet)
	e.f64(tn.AmbientC, tn.NodeRthKperW, tn.NodeCthJperK, tn.SpreaderRthKperW,
		tn.SpreaderCthJperK, tn.FanFactor)

	e.tag(tagBus)
	e.f64(c.Bus.FreqHz, c.Bus.EnergyPerWord)
	e.int(int(c.Bus.Arbitration))
	e.tag(tagBusWords)
	e.int(c.BusWords)
	e.tag(tagTimeout)
	e.time(c.Timeout)
	e.state(c.TimeoutSleepState)
	e.tag(tagGreedy)
	e.state(c.GreedySleepState)
	e.tag(tagSample)
	e.time(c.SampleInterval)
	e.tag(tagHorizon)
	e.time(c.Horizon)
	e.tag(tagBaseClock)
	e.f64(c.BaseClockHz)
	if r := c.Regulator; r != nil {
		e.tag(tagRegulator)
		e.f64(r.FixedLossW, r.CondLossPerW, r.RatioPenalty, r.SweetRatio, r.VinNominal)
	}

	e.tag(tagLEM)
	e.str(string(c.LEM.Predictor))
	e.f64(c.LEM.Alpha)
	e.bool(c.LEM.DisableBreakEven)
	e.bool(c.LEM.AllowSoftOff)
	if c.LEM.Table != nil {
		e.tag(tagLEMTable)
		e.buf = c.LEM.Table.AppendCanonical(e.buf)
	}

	e.tag(tagIPs)
	e.int(len(c.IPs))
	for i := range c.IPs {
		ip := &c.IPs[i]
		e.tag(tagIP)
		e.str(ip.Name)
		e.int(ip.StaticPriority)
		e.state(ip.InitialState)
		e.tag(tagProfile)
		e.profile(ip.Profile)
		if ip.Gen.Kind != workload.GenNone {
			// The materialized Sequence/Arrivals below derive from the
			// spec, but hashing both keeps the key honest if a generator's
			// algorithm ever changes under fixed parameters.
			e.tag(tagGen)
			e.gen(&ip.Gen)
		}
		e.tag(tagSequence)
		e.sequence(ip.Sequence)
		e.tag(tagArrivals)
		e.int(len(ip.Arrivals))
		for j := range ip.Arrivals {
			a := &ip.Arrivals[j]
			e.task(&a.Task)
			e.time(a.At)
		}
	}
}

func (e *keyEncoder) profile(p *power.Profile) {
	e.f64(p.CeffF, p.LeakWPerV, p.IdleFactor, p.CyclesPerInstr, p.VScaleEnergy)
	e.time(p.VScaleLatency)
	e.weights(p.InstrWeight[:])
	e.int(len(p.On))
	for i := range p.On {
		op := &p.On[i]
		e.str(op.Name)
		e.f64(op.FreqHz, op.Vdd)
	}
	e.int(len(p.Sleep))
	for i := range p.Sleep {
		s := &p.Sleep[i]
		e.str(s.Name)
		e.f64(s.Power, s.EnterEnergy, s.WakeEnergy)
		e.time(s.EnterLatency, s.WakeLatency)
		e.bool(s.LosesContext)
	}
}

// gen encodes a generator spec — every variant, not just the one Kind
// selects, as v4's rendering of the whole struct did.
func (e *keyEncoder) gen(g *workload.Spec) {
	e.str(string(g.Kind))
	c := &g.Closed
	e.taskParams(uint64(c.Seed), c.NumTasks, c.MeanInstructions, c.InstrJitter, &c.ClassWeights, &c.PriorityWeights)
	e.time(c.MeanIdle)
	e.int(int(c.IdleDist))
	b := &g.Burst
	e.taskParams(uint64(b.Seed), b.NumTasks, b.MeanInstructions, b.InstrJitter, &b.ClassWeights, &b.PriorityWeights)
	e.f64(b.TasksPerBurst)
	e.time(b.ShortIdle, b.LongIdle)
	m := &g.MMPP
	e.taskParams(uint64(m.Seed), m.NumTasks, m.MeanInstructions, m.InstrJitter, &m.ClassWeights, &m.PriorityWeights)
	e.f64(m.BusyRate, m.QuietRate)
	e.time(m.MeanBusy, m.MeanQuiet)
	p := &g.Periodic
	e.taskParams(uint64(p.Seed), p.NumTasks, p.MeanInstructions, p.InstrJitter, &p.ClassWeights, &p.PriorityWeights)
	e.time(p.Period)
	e.f64(p.JitterFrac)
	h := &g.HeavyTail
	e.taskParams(uint64(h.Seed), h.NumTasks, h.MeanInstructions, h.InstrJitter, &h.ClassWeights, &h.PriorityWeights)
	e.time(h.MeanIdle)
	e.f64(h.Shape, h.TailCap)
	e.sequence(g.Trace)
}

// taskParams encodes the task-body parameters every generator profile
// shares.
func (e *keyEncoder) taskParams(seed uint64, numTasks int, mean int64, jitter float64,
	classes *[power.NumInstrClasses]float64, prios *[task.NumPriorities]float64) {
	e.u64(seed)
	e.int(numTasks)
	e.u64(uint64(mean))
	e.f64(jitter)
	e.weights(classes[:])
	e.weights(prios[:])
}

func (e *keyEncoder) sequence(s workload.Sequence) {
	e.int(len(s))
	for i := range s {
		e.task(&s[i].Task)
		e.time(s[i].IdleAfter)
	}
}

// task encodes the five task fields; with the item's time that makes
// itemBytes.
func (e *keyEncoder) task(t *task.Task) {
	e.int(t.ID)
	e.u64(uint64(t.Instructions))
	e.int(int(t.Class))
	e.int(int(t.Priority))
	e.time(t.Release)
}

// ResultDigest hashes the deterministic content of a Result: everything
// the simulation computed, excluding host-timing fields (WallSeconds).
// Two runs of configs with equal Fingerprints must produce equal digests
// regardless of worker count, host load or cache state — the engine's
// determinism tests are phrased in terms of this digest.
//
// The hashed text is a sequence of labelled fields "|name=value" whose
// values read as fmt's %+v renders them: floats in shortest 'g' form,
// sim.Time in its String form, ledger rows as
// "{IP:… TaskID:… Request:… Start:… Done:… State:…}". The label keeps
// adjacent fields from aliasing ("ab"+"c" vs "a"+"bc"). The text is built
// with strconv appends in a fixed buffer that streams into the hash, so a
// digest takes a handful of allocations however long the ledger is.
func ResultDigest(r *soc.Result) string {
	d := &digester{h: sha256.New()}
	d.buf = append(d.arr[:0], "godpm-result-v3"...)
	d.float(r.EnergyJ, "energy")
	d.label("deltas")
	d.buf = strconv.AppendUint(d.buf, r.Deltas, 10)
	d.str(r.StopReason, "stopreason")
	for _, k := range sortedKeys(d.keys[:0], r.EnergyByIP) {
		d.float(r.EnergyByIP[k], "energyby.", k)
	}
	d.float(r.BusEnergyJ, "busenergy")
	d.float(r.AvgTempC, "avgtemp")
	d.float(r.PeakTempC, "peaktemp")
	d.float(r.AmbientC, "ambient")
	d.time(r.Duration, "duration")
	d.label("completed")
	d.buf = strconv.AppendBool(d.buf, r.Completed)
	d.int(r.TasksDone, "tasks")
	d.float(r.Cycles, "cycles")
	d.float(r.FinalSoC, "soc")
	d.int(int(r.FinalBatteryStatus), "batt")
	d.int(r.GEMEvaluations, "gemev")
	d.int(r.FanSwitches, "fan")
	d.float(r.BusOccupancy, "busocc")
	if r.Ledger != nil {
		d.int(r.Ledger.Len(), "nledger")
		for i := range r.Ledger.Records() {
			d.ledgerRow(&r.Ledger.Records()[i])
		}
	}
	var names [8]string
	for _, name := range sortedKeys(names[:0], r.LEMStats) {
		s := r.LEMStats[name]
		for _, k := range sortedKeys(d.keys[:0], s.OnDecisions) {
			d.int(s.OnDecisions[k], name, ".on.", k)
		}
		for _, k := range sortedKeys(d.keys[:0], s.SleepEntries) {
			d.int(s.SleepEntries[k], name, ".sleep.", k)
		}
		d.int(s.ParkEvents, name, ".park")
		d.time(s.ParkedTime, name, ".parked")
	}
	return d.sum()
}

// The digester's buffer size, and the length past which label hands the
// buffered text to the hash: the room left holds any one field short of
// an unusually long name or string, and a longer one merely grows the
// buffer until the next flush.
const (
	digestBufLen  = 1024
	digestFlushAt = digestBufLen - 256
)

// digester builds ResultDigest's text and streams it into one hash.
type digester struct {
	h    hash.Hash
	buf  []byte
	arr  [digestBufLen]byte
	keys [8]string // backing store for one map's sorted keys
}

// label starts the field "|name=", name being parts concatenated,
// flushing the buffer to the hash first when it is nearly full.
func (d *digester) label(parts ...string) {
	if len(d.buf) > digestFlushAt {
		d.h.Write(d.buf)
		d.buf = d.arr[:0]
	}
	d.buf = append(d.buf, '|')
	for _, p := range parts {
		d.buf = append(d.buf, p...)
	}
	d.buf = append(d.buf, '=')
}

// float, int, time and str write one field, its label the
// concatenated parts.
func (d *digester) float(v float64, label ...string) {
	d.label(label...)
	d.buf = strconv.AppendFloat(d.buf, v, 'g', -1, 64)
}

func (d *digester) int(v int, label ...string) {
	d.label(label...)
	d.buf = strconv.AppendInt(d.buf, int64(v), 10)
}

func (d *digester) time(v sim.Time, label ...string) {
	d.label(label...)
	d.buf = v.Append(d.buf)
}

func (d *digester) str(v string, label ...string) {
	d.label(label...)
	d.buf = append(d.buf, v...)
}

// ledgerRow writes one ledger record as "|l={IP:… State:…}".
func (d *digester) ledgerRow(rec *stats.TaskRecord) {
	d.label("l")
	d.buf = append(d.buf, "{IP:"...)
	d.buf = append(d.buf, rec.IP...)
	d.buf = append(d.buf, " TaskID:"...)
	d.buf = strconv.AppendInt(d.buf, int64(rec.TaskID), 10)
	d.buf = append(d.buf, " Request:"...)
	d.buf = rec.Request.Append(d.buf)
	d.buf = append(d.buf, " Start:"...)
	d.buf = rec.Start.Append(d.buf)
	d.buf = append(d.buf, " Done:"...)
	d.buf = rec.Done.Append(d.buf)
	d.buf = append(d.buf, " State:"...)
	d.buf = append(d.buf, rec.State...)
	d.buf = append(d.buf, '}')
}

// sum flushes the rest of the text and returns the hex digest.
func (d *digester) sum() string {
	d.h.Write(d.buf)
	sum := d.h.Sum(d.arr[:0])
	hex.Encode(d.arr[sha256.Size:], sum)
	return string(d.arr[sha256.Size : 3*sha256.Size])
}

// sortedKeys appends m's keys to dst in ascending order.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
