package sbclient

import (
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/wire"
)

// QueryPolicy is the client-side privacy middleware seam: it sits
// between local-hit detection and the full-hash round trip, sees the
// real prefixes a lookup needs resolved, and decides what actually goes
// on the wire — padded with dummies, reordered, withheld, or staged
// across several follow-up requests whose later stages may depend on
// earlier responses (the paper's Section 8 countermeasures are
// implementations of this interface, in internal/mitigation).
//
// A nil policy is the vanilla client: every real prefix in one request.
type QueryPolicy interface {
	// Plan opens a fresh plan for one lookup. The client drives the plan
	// to completion before the lookup returns; plans are never reused
	// across lookups.
	Plan(q Query) QueryPlan
}

// Query describes one lookup's full-hash need as the policy sees it:
// the real prefixes whose resolution the cache could not answer.
type Query struct {
	// Canonical is the canonicalized URL under lookup.
	Canonical string
	// Prefixes are the real prefixes needing provider resolution, in
	// decomposition discovery order, deduplicated. Exactly one entry has
	// Root set when the slice is non-empty.
	Prefixes []QueryPrefix
	// CachedMalicious reports that the full-hash cache already confirmed
	// one of the lookup's decompositions malicious: the verdict is
	// determined before anything goes on the wire, so a withholding
	// policy may end the plan immediately instead of prompting or
	// leaking for prefixes that can no longer change the outcome.
	CachedMalicious bool
}

// QueryPrefix is one real prefix of a Query with its provenance.
type QueryPrefix struct {
	// Expression is the decomposition that produced the prefix.
	Expression string
	// Prefix is the 32-bit prefix to resolve.
	Prefix hashx.Prefix
	// Root marks the broadest decomposition among the query's prefixes
	// (the registrable-domain root when present) — the prefix the
	// paper's one-prefix-at-a-time strategy sends first.
	Root bool
}

// Stage is one wire request a plan wants sent.
type Stage struct {
	// Send is the full prefix set for the wire, reals and dummies mixed
	// in whatever order the policy chose.
	Send []hashx.Prefix
	// Real is the subset of Send that is genuinely needed by the lookup
	// (must be drawn from the plan's Query); everything else in Send is
	// counted as dummy traffic. Responses are cached for Real prefixes
	// only.
	Real []hashx.Prefix
}

// QueryPlan is the iterative conversation between the client and a
// policy for one lookup: Next yields the next stage (ok=false ends the
// plan), and after each stage's round trip the client hands the
// provider's response back via Observe so later stages can depend on
// it. Real prefixes no stage ever sent stay unresolved — the lookup
// treats them as unconfirmed (safe) and counts them as withheld.
type QueryPlan interface {
	// Next returns the next stage to send. Empty stages are skipped
	// without a round trip (and without an Observe call). ok=false ends
	// the plan.
	Next() (stage Stage, ok bool)
	// Observe delivers the provider's response to the stage just sent.
	Observe(stage Stage, resp *wire.FullHashResponse)
}

// WithQueryPolicy installs the privacy policy applied to every lookup's
// full-hash traffic. A nil policy (the default) sends every real prefix
// in a single request.
func WithQueryPolicy(p QueryPolicy) Option {
	return func(c *Client) { c.policy = p }
}

// singleStagePlan is the nil-policy behaviour: all reals, one request.
type singleStagePlan struct {
	stage Stage
	done  bool
}

func (p *singleStagePlan) Next() (Stage, bool) {
	if p.done {
		return Stage{}, false
	}
	p.done = true
	return p.stage, true
}

func (p *singleStagePlan) Observe(Stage, *wire.FullHashResponse) {}

// buildQuery assembles the policy's view of a lookup from the uncached
// real hits, marking the broadest decomposition as the root (mirroring
// the one-prefix-at-a-time strategy's root choice: the last
// registrable-domain decomposition when present, else the last — and
// thus broadest — hit).
func buildQuery(canonical string, exprOf map[hashx.Prefix]string, toQuery []hashx.Prefix, cachedMalicious bool) Query {
	q := Query{
		Canonical:       canonical,
		Prefixes:        make([]QueryPrefix, 0, len(toQuery)),
		CachedMalicious: cachedMalicious,
	}
	for _, p := range toQuery {
		q.Prefixes = append(q.Prefixes, QueryPrefix{Expression: exprOf[p], Prefix: p})
	}
	if len(q.Prefixes) > 0 {
		rootIdx := len(q.Prefixes) - 1
		for i, qp := range q.Prefixes {
			if urlx.IsDomainDecomposition(qp.Expression) {
				rootIdx = i // keep scanning: the broadest root is the last
			}
		}
		q.Prefixes[rootIdx].Root = true
	}
	return q
}
