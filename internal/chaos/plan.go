// Package chaos is the deterministic fault-injection layer of the
// reproduction: a Plan schedules faults in virtual time (straggler
// links, flapping links, message loss, slow devices, payload
// corruption), a Runner executes a strategy's iterations against the
// faulted message-level network with retry/timeout recovery semantics,
// and a Monitor detects sustained degradation and triggers re-selection
// of the compression strategy on the degraded topology.
//
// Everything is seeded and reproducible: the same plan and seed produce
// bit-identical traces, samples, and re-selected strategies at any
// search parallelism.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"espresso/internal/netsim"
)

// Duration is a time.Duration that unmarshals from either a duration
// string ("5ms", "200us") or a bare number of nanoseconds, and marshals
// as a string. Plan files use it everywhere a time appears.
type Duration time.Duration

// D is the underlying duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	ns, err := strconv.ParseInt(string(data), 10, 64)
	if err != nil {
		return fmt.Errorf("chaos: duration must be a string like \"5ms\" or nanoseconds: %s", data)
	}
	*d = Duration(ns)
	return nil
}

// FaultKind names an injectable fault class.
type FaultKind string

const (
	// Straggler scales one link's (or every link's) bandwidth down by
	// Scale for the fault window.
	Straggler FaultKind = "straggler"
	// Flap alternates a link between degraded (Scale) and healthy every
	// Period for the fault window.
	Flap FaultKind = "flap"
	// Loss drops each message with probability Rate for the window;
	// dropped messages are retransmitted per the retry policy.
	Loss FaultKind = "loss"
	// SlowDevice multiplies compute and compression time on Device by
	// Scale for the window.
	SlowDevice FaultKind = "slow-device"
	// Corrupt flips a byte of each encoded payload with probability
	// Rate on the DDL data plane; corrupt arrivals are retransmitted.
	Corrupt FaultKind = "corrupt"
	// Leave removes machine Rank from the membership at Start: in-flight
	// and subsequent messages touching it fail fast, and the Runner
	// reconfigures onto the surviving topology.
	Leave FaultKind = "leave"
	// Join returns a previously departed machine Rank to the membership
	// at Start; the Runner re-expands symmetrically.
	Join FaultKind = "join"
)

// Fault is one scheduled fault. Fields beyond Kind/Start are
// kind-specific; Validate enforces which apply.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// Src/Dst select a link for straggler/flap; -1 (or omitted src)
	// means every link.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Scale is the bandwidth multiplier in (0, 1) for straggler/flap, or
	// the slowdown multiplier >= 1 for slow-device.
	Scale float64 `json:"scale,omitempty"`
	// Rate is the per-message probability for loss/corrupt.
	Rate float64 `json:"rate,omitempty"`
	// Start opens the fault window; Duration closes it (0 = sustained to
	// the end of the run).
	Start    Duration `json:"start,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	// Period is the flap cycle length (degraded for half the cycle).
	Period Duration `json:"period,omitempty"`
	// Device selects "gpu", "cpu", or "" (both) for slow-device.
	Device string `json:"device,omitempty"`
	// Rank is the machine index for leave/join membership events.
	Rank int `json:"rank,omitempty"`

	// durationSet records whether the plan JSON spelled out a duration —
	// an explicit zero-length window is a validation error, while an
	// omitted duration means "sustained to the end of the run".
	durationSet bool
}

// UnmarshalJSON tracks whether the duration field was present, so
// Validate can reject explicit zero-duration windows without changing
// the meaning of an omitted duration.
func (f *Fault) UnmarshalJSON(data []byte) error {
	type alias Fault
	aux := struct {
		Duration *Duration `json:"duration"`
		*alias
	}{alias: (*alias)(f)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	if aux.Duration != nil {
		f.Duration = *aux.Duration
		f.durationSet = true
	}
	return nil
}

// window reports whether t falls inside the fault's active window.
func (f *Fault) window(t time.Duration) bool {
	if t < f.Start.D() {
		return false
	}
	return f.Duration <= 0 || t < f.Start.D()+f.Duration.D()
}

// end is the exclusive end of the fault's window; -1 means sustained.
func (f *Fault) end() time.Duration {
	if f.Duration <= 0 {
		return -1
	}
	return f.Start.D() + f.Duration.D()
}

// overlaps reports whether two fault windows intersect.
func overlaps(a, b *Fault) bool {
	if ae := a.end(); ae >= 0 && ae <= b.Start.D() {
		return false
	}
	if be := b.end(); be >= 0 && be <= a.Start.D() {
		return false
	}
	return true
}

// sameLink reports whether two link faults can touch the same link
// (either is global, or they name the same src->dst pair).
func sameLink(a, b *Fault) bool {
	if a.Src < 0 || b.Src < 0 {
		return true
	}
	return a.Src == b.Src && a.Dst == b.Dst
}

// RetryConfig mirrors netsim.Recovery in plan JSON; zero fields use the
// netsim defaults.
type RetryConfig struct {
	Timeout     Duration `json:"timeout,omitempty"`
	Backoff     float64  `json:"backoff,omitempty"`
	MaxRTO      Duration `json:"max_rto,omitempty"`
	MaxAttempts int      `json:"max_attempts,omitempty"`
}

// Recovery converts to the netsim policy.
func (r RetryConfig) Recovery() netsim.Recovery {
	return netsim.Recovery{
		Timeout:     r.Timeout.D(),
		Backoff:     r.Backoff,
		MaxRTO:      r.MaxRTO.D(),
		MaxAttempts: r.MaxAttempts,
	}
}

// Policy names a graceful-degradation policy: what the Runner does when
// membership changes mid-run.
type Policy string

const (
	// PolicyReselect (the default) re-runs strategy selection on the
	// reconfigured topology, warm-started from the incumbent.
	PolicyReselect Policy = "reselect"
	// PolicyContinueDegraded keeps the stale strategy on the
	// reconfigured topology — no re-selection, the degradation baseline.
	PolicyContinueDegraded Policy = "continue-degraded"
	// PolicyAbortAfterN behaves like reselect but aborts the run with a
	// typed error once MaxFailures iteration/reconfiguration failures
	// have accumulated.
	PolicyAbortAfterN Policy = "abort-after-n-failures"
)

// ReconfigConfig governs elastic reconfiguration: the degradation policy
// and the bounded retry/timeout/backoff quiesce barrier that survivors
// run before resuming.
type ReconfigConfig struct {
	// Policy selects the degradation policy (default reselect).
	Policy Policy `json:"policy,omitempty"`
	// MaxFailures arms abort-after-n-failures (default 3).
	MaxFailures int `json:"max_failures,omitempty"`
	// BarrierTimeout bounds one barrier attempt in virtual time
	// (default 5ms); BarrierBackoff grows it per retry (default 2, must
	// be >= 1); BarrierAttempts bounds total attempts (default 5).
	BarrierTimeout  Duration `json:"barrier_timeout,omitempty"`
	BarrierBackoff  float64  `json:"barrier_backoff,omitempty"`
	BarrierAttempts int      `json:"barrier_attempts,omitempty"`
}

// policy resolves the configured policy with its default.
func (r ReconfigConfig) policy() Policy {
	if r.Policy == "" {
		return PolicyReselect
	}
	return r.Policy
}

// maxFailures resolves the abort threshold with its default.
func (r ReconfigConfig) maxFailures() int {
	if r.MaxFailures <= 0 {
		return 3
	}
	return r.MaxFailures
}

// barrier resolves the quiesce-barrier bounds with their defaults.
func (r ReconfigConfig) barrier() (timeout time.Duration, backoff float64, attempts int) {
	timeout, backoff, attempts = r.BarrierTimeout.D(), r.BarrierBackoff, r.BarrierAttempts
	if timeout <= 0 {
		timeout = 5 * time.Millisecond
	}
	if backoff < 1 {
		backoff = 2
	}
	if attempts <= 0 {
		attempts = 5
	}
	return timeout, backoff, attempts
}

// MonitorConfig sets the degradation detector's thresholds.
type MonitorConfig struct {
	// Factor is the observed/predicted ratio that counts as a breach
	// (default 1.5).
	Factor float64 `json:"factor,omitempty"`
	// Consecutive is how many breaches in a row trip the detector
	// (default 3).
	Consecutive int `json:"consecutive,omitempty"`
}

// Plan is a complete fault schedule plus recovery and detection
// configuration — the JSON file espresso sim -chaos loads.
type Plan struct {
	// Seed drives every random draw (message loss, payload corruption).
	Seed uint64 `json:"seed"`
	// Deadline bounds each iteration's communication in virtual time;
	// 0 disables the per-iteration deadline.
	Deadline Duration `json:"deadline,omitempty"`
	// Retry is the lost-message retransmission policy.
	Retry RetryConfig `json:"retry,omitempty"`
	// Monitor configures degradation detection.
	Monitor MonitorConfig `json:"monitor,omitempty"`
	// Reconfig configures elastic-membership reconfiguration.
	Reconfig ReconfigConfig `json:"reconfig,omitempty"`
	// Faults is the schedule.
	Faults []Fault `json:"faults"`
}

// Load reads and validates a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse unmarshals and validates plan JSON.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("chaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks every fault's parameters, then the schedule as a
// whole: explicit zero-duration windows, contradictory overlapping
// faults on the same link, and inconsistent membership sequences
// (double-leave, join of a present rank) are all rejected.
func (p *Plan) Validate() error {
	for i := range p.Faults {
		f := &p.Faults[i]
		at := func(format string, args ...any) error {
			return fmt.Errorf("chaos: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		if f.Start < 0 || f.Duration < 0 || f.Period < 0 {
			return at("negative times")
		}
		if f.durationSet && f.Duration == 0 {
			return at("zero-duration fault window (omit duration for a sustained fault)")
		}
		switch f.Kind {
		case Straggler, Flap:
			if f.Scale <= 0 || f.Scale >= 1 {
				return at("scale %g, want (0, 1)", f.Scale)
			}
			if (f.Src < 0) != (f.Dst < 0) && f.Src != -1 {
				return at("src/dst must both be set or src = -1 for every link")
			}
			if f.Kind == Flap {
				if f.Period <= 0 {
					return at("flap needs a positive period")
				}
				if f.Duration <= 0 {
					return at("flap needs a bounded duration")
				}
				if f.Duration.D()/f.Period.D() > 10_000 {
					return at("%d flap cycles, want <= 10000", f.Duration.D()/f.Period.D())
				}
			}
		case Loss:
			if f.Rate <= 0 || f.Rate >= 1 {
				return at("rate %g, want (0, 1)", f.Rate)
			}
		case SlowDevice:
			if f.Scale < 1 {
				return at("scale %g, want >= 1", f.Scale)
			}
			switch f.Device {
			case "", "gpu", "cpu":
			default:
				return at("device %q, want gpu, cpu, or empty", f.Device)
			}
		case Corrupt:
			if f.Rate <= 0 || f.Rate > 1 {
				return at("rate %g, want (0, 1]", f.Rate)
			}
		case Leave, Join:
			if f.Rank < 0 {
				return at("rank %d, want >= 0", f.Rank)
			}
			if f.Scale != 0 || f.Rate != 0 || f.Period != 0 {
				return at("scale/rate/period do not apply to membership events")
			}
			if f.Duration != 0 {
				return at("membership events are instantaneous (no duration)")
			}
		default:
			return at("unknown kind")
		}
	}
	if p.Monitor.Factor < 0 || (p.Monitor.Factor > 0 && p.Monitor.Factor <= 1) {
		return fmt.Errorf("chaos: monitor factor %g, want > 1 (or 0 for default)", p.Monitor.Factor)
	}
	if p.Monitor.Consecutive < 0 {
		return fmt.Errorf("chaos: monitor consecutive %d, want >= 0", p.Monitor.Consecutive)
	}
	switch p.Reconfig.Policy {
	case "", PolicyReselect, PolicyContinueDegraded, PolicyAbortAfterN:
	default:
		return fmt.Errorf("chaos: reconfig policy %q, want %s, %s, or %s",
			p.Reconfig.Policy, PolicyReselect, PolicyContinueDegraded, PolicyAbortAfterN)
	}
	if p.Reconfig.MaxFailures < 0 {
		return fmt.Errorf("chaos: reconfig max_failures %d, want >= 0", p.Reconfig.MaxFailures)
	}
	if p.Reconfig.BarrierTimeout < 0 || p.Reconfig.BarrierAttempts < 0 {
		return fmt.Errorf("chaos: reconfig barrier bounds must be >= 0")
	}
	if b := p.Reconfig.BarrierBackoff; b != 0 && b < 1 {
		return fmt.Errorf("chaos: reconfig barrier_backoff %g, want >= 1 (or 0 for default)", b)
	}
	if err := p.validateMembership(); err != nil {
		return err
	}
	return p.validateOverlaps()
}

// validateMembership checks the leave/join schedule per rank: events
// must alternate (a rank can only leave while present and only join
// while absent), and two events for one rank cannot share an instant.
func (p *Plan) validateMembership() error {
	events := p.membershipEvents()
	last := map[int]*Fault{} // rank -> most recent event
	for _, f := range events {
		prev := last[f.Rank]
		if prev != nil && prev.Start == f.Start {
			return fmt.Errorf("chaos: rank %d has two membership events at %v", f.Rank, f.Start)
		}
		present := prev == nil || prev.Kind == Join
		if f.Kind == Leave && !present {
			return fmt.Errorf("chaos: double leave of rank %d at %v (already absent)", f.Rank, f.Start)
		}
		if f.Kind == Join && present {
			return fmt.Errorf("chaos: join of present rank %d at %v", f.Rank, f.Start)
		}
		last[f.Rank] = f
	}
	return nil
}

// validateOverlaps rejects contradictory overlapping faults: two
// bandwidth faults (straggler/flap) whose windows intersect on the same
// link resolve order-dependently, two overlapping loss windows fight
// over the global loss rate, and a link fault that names a rank during
// its absence can never take effect.
func (p *Plan) validateOverlaps() error {
	conflict := func(i, j int, what string) error {
		a, b := &p.Faults[i], &p.Faults[j]
		return fmt.Errorf("chaos: faults %d (%s) and %d (%s) overlap %s", i, a.Kind, j, b.Kind, what)
	}
	for i := range p.Faults {
		a := &p.Faults[i]
		for j := i + 1; j < len(p.Faults); j++ {
			b := &p.Faults[j]
			if !overlaps(a, b) {
				continue
			}
			aBW := a.Kind == Straggler || a.Kind == Flap
			bBW := b.Kind == Straggler || b.Kind == Flap
			if aBW && bBW && sameLink(a, b) {
				return conflict(i, j, "on the same link (contradictory bandwidth)")
			}
			if a.Kind == Loss && b.Kind == Loss {
				return conflict(i, j, "(contradictory loss rates)")
			}
		}
	}
	// A link fault naming a specific rank must not overlap that rank's
	// absence window.
	events := p.membershipEvents()
	for i := range p.Faults {
		f := &p.Faults[i]
		if (f.Kind != Straggler && f.Kind != Flap) || f.Src < 0 {
			continue
		}
		for _, away := range absences(events) {
			if away.rank != f.Src && away.rank != f.Dst {
				continue
			}
			win := &Fault{Start: away.from}
			if away.to >= 0 {
				win.Duration = Duration(away.to - away.from.D())
			}
			if overlaps(f, win) {
				return fmt.Errorf("chaos: fault %d (%s) on link %d->%d overlaps rank %d's absence",
					i, f.Kind, f.Src, f.Dst, away.rank)
			}
		}
	}
	return nil
}

// absence is one closed period a rank spends outside the membership;
// to < 0 means it never rejoins.
type absence struct {
	rank int
	from Duration
	to   time.Duration
}

// absences pairs each leave with its matching join (events are already
// validated to alternate).
func absences(events []*Fault) []absence {
	var out []absence
	open := map[int]int{} // rank -> index into out of the open absence
	for _, f := range events {
		switch f.Kind {
		case Leave:
			open[f.Rank] = len(out)
			out = append(out, absence{rank: f.Rank, from: f.Start, to: -1})
		case Join:
			if i, ok := open[f.Rank]; ok {
				out[i].to = f.Start.D()
				delete(open, f.Rank)
			}
		}
	}
	return out
}

// membershipEvents returns the plan's leave/join faults sorted by Start
// (stable, so same-instant events for different ranks keep file order).
func (p *Plan) membershipEvents() []*Fault {
	var out []*Fault
	for i := range p.Faults {
		if k := p.Faults[i].Kind; k == Leave || k == Join {
			out = append(out, &p.Faults[i])
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// HasMembershipFaults reports whether the plan schedules any leave/join
// events.
func (p *Plan) HasMembershipFaults() bool {
	for i := range p.Faults {
		if k := p.Faults[i].Kind; k == Leave || k == Join {
			return true
		}
	}
	return false
}

// MembersAt computes the membership of an n-machine cluster at virtual
// time t: true = present. Events exactly at t have taken effect.
func (p *Plan) MembersAt(t time.Duration, n int) ([]bool, error) {
	members := make([]bool, n)
	for i := range members {
		members[i] = true
	}
	for _, f := range p.membershipEvents() {
		if f.Start.D() > t {
			break
		}
		if f.Rank >= n {
			return nil, fmt.Errorf("chaos: membership rank %d out of range for %d machines", f.Rank, n)
		}
		members[f.Rank] = f.Kind == Join
	}
	return members, nil
}

// DeviceScalesAt reports the combined slow-device multipliers active at
// virtual time t (1/1 = healthy). Overlapping faults compose
// multiplicatively.
func (p *Plan) DeviceScalesAt(t time.Duration) (gpu, cpu float64) {
	gpu, cpu = 1, 1
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Kind != SlowDevice || !f.window(t) {
			continue
		}
		switch f.Device {
		case "gpu":
			gpu *= f.Scale
		case "cpu":
			cpu *= f.Scale
		default:
			gpu *= f.Scale
			cpu *= f.Scale
		}
	}
	return gpu, cpu
}

// CorruptRate reports the payload-corruption probability active at t.
func (p *Plan) CorruptRate(t time.Duration) float64 {
	rate := 0.0
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Kind == Corrupt && f.window(t) && f.Rate > rate {
			rate = f.Rate
		}
	}
	return rate
}

// HasLinkFaults reports whether the plan touches the network at all
// (straggler, flap, or loss).
func (p *Plan) HasLinkFaults() bool {
	for i := range p.Faults {
		switch p.Faults[i].Kind {
		case Straggler, Flap, Loss:
			return true
		}
	}
	return false
}
