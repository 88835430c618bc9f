package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// SweepSet is one swept axis: a dotted path into the scenario document and
// the values it takes. "fault.fit_scale=1,10" sweeps the FIT multiplier;
// "reliability.cells.0.way_limit=1,4" indexes into arrays.
type SweepSet struct {
	Path   string
	Values []string
}

// ParseSet parses the CLI's "-set path=v1,v2,..." syntax.
func ParseSet(s string) (SweepSet, error) {
	path, vals, ok := strings.Cut(s, "=")
	if !ok || path == "" || vals == "" {
		return SweepSet{}, fmt.Errorf("scenario: bad -set %q (want path=value[,value...])", s)
	}
	return SweepSet{Path: path, Values: strings.Split(vals, ",")}, nil
}

// Expand builds the cross-product of the swept axes over the base
// scenario: one fully validated scenario per point, named
// "<base>/<path>=<value>[,...]" and fingerprint-distinct. Each override is
// applied through the JSON document and re-decoded with unknown fields
// rejected, so a typoed path fails loudly instead of silently sweeping
// nothing.
func Expand(base *Scenario, sets []SweepSet) ([]*Scenario, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("scenario: sweep needs at least one -set axis")
	}
	doc, err := base.Canonical()
	if err != nil {
		return nil, err
	}
	points := []sweepPoint{{doc: doc}}
	for _, set := range sets {
		var next []sweepPoint
		for _, p := range points {
			for _, v := range set.Values {
				nd, err := applyOverride(p.doc, set.Path, v)
				if err != nil {
					return nil, fmt.Errorf("scenario: sweep %s=%s: %w", set.Path, v, err)
				}
				next = append(next, sweepPoint{
					doc:    nd,
					suffix: append(append([]string(nil), p.suffix...), set.Path+"="+v),
				})
			}
		}
		points = next
	}
	out := make([]*Scenario, 0, len(points))
	for _, p := range points {
		sc, err := Decode(p.doc)
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep point %s: %w", strings.Join(p.suffix, ","), err)
		}
		sc.Name = base.Name + "/" + strings.Join(p.suffix, ",")
		out = append(out, sc)
	}
	return out, nil
}

type sweepPoint struct {
	doc    []byte
	suffix []string
}

// applyOverride sets the dotted path in the JSON document to the value
// (parsed as JSON when possible, kept as a string otherwise) and
// re-encodes. Paths must address existing structure except for the final
// segment, which may introduce an optional field; numeric segments index
// arrays.
func applyOverride(doc []byte, path, value string) ([]byte, error) {
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		return nil, err
	}
	var val any
	if err := json.Unmarshal([]byte(value), &val); err != nil {
		val = value // bare strings like "hopper" need no quoting
	}
	segs := strings.Split(path, ".")
	cur := root
	for i, seg := range segs {
		last := i == len(segs)-1
		switch node := cur.(type) {
		case map[string]any:
			if last {
				node[seg] = val
				break
			}
			child, ok := node[seg]
			if !ok || child == nil {
				return nil, fmt.Errorf("path %q: no field %q in the resolved document (sweeps can only override fields the base scenario resolves)", path, seg)
			}
			cur = child
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil {
				return nil, fmt.Errorf("path %q: %q indexes an array, want a number", path, seg)
			}
			if idx < 0 || idx >= len(node) {
				return nil, fmt.Errorf("path %q: index %d out of range (array has %d entries)", path, idx, len(node))
			}
			if last {
				node[idx] = val
				break
			}
			cur = node[idx]
		default:
			return nil, fmt.Errorf("path %q: segment %q addresses a scalar", path, seg)
		}
	}
	return json.Marshal(root)
}
