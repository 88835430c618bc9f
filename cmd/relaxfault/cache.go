package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	cstore "relaxfault/internal/campaign/store"
)

// runCache implements the cache subcommand over a -store DIR: list every
// completed entry, show matching entries' metadata as JSON, or evict every
// entry under a campaign-key prefix. Exit 0 on success, 1 on store errors,
// 2 on usage errors.
func runCache(args []string, storeDir string) int {
	st, err := cstore.Open(storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	op := "list"
	if len(args) > 0 {
		op = args[0]
		args = args[1:]
	}
	switch op {
	case "list":
		if len(args) > 0 {
			fmt.Fprintf(os.Stderr, "relaxfault: cache list takes no arguments (got %q)\n", args)
			return 2
		}
		return cacheList(st)
	case "show":
		if len(args) != 1 {
			fmt.Fprintf(os.Stderr, "relaxfault: cache show takes exactly one KEY prefix\n")
			return 2
		}
		return cacheShow(st, args[0])
	case "evict":
		if len(args) != 1 {
			fmt.Fprintf(os.Stderr, "relaxfault: cache evict takes exactly one KEY prefix\n")
			return 2
		}
		n, err := st.Evict(args[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
			return 1
		}
		fmt.Printf("evicted %d entr%s\n", n, plural(n, "y", "ies"))
		return 0
	default:
		fmt.Fprintf(os.Stderr, "relaxfault: unknown cache operation %q (want list, show, or evict)\n", op)
		return 2
	}
}

// cacheList prints one row per completed store entry, ending in the entry's
// directory under the store root, where its campaign log (checkpoint.jsonl)
// is the input of the verify subcommand.
func cacheList(st *cstore.Store) int {
	es, err := st.Entries()
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	fmt.Printf("%-16s %-6s %12s %-10s %-7s %8s  %-20s  %s\n",
		"key", "seed", "trials", "scenario", "stopped", "wall", "created", "entry")
	for _, e := range es {
		m := e.Meta
		fmt.Printf("%-16s %-6d %12d %-10s %-7v %7.1fs  %-20s  %s\n",
			m.Key, m.Seed, m.Trials, m.Name, m.Stopped, m.WallSeconds, m.Created, st.Rel(e.Dir))
	}
	fmt.Fprintf(os.Stderr, "%d entr%s in %s\n", len(es), plural(len(es), "y", "ies"), st.Root())
	return 0
}

// cacheShow dumps the metadata of every entry whose campaign key matches
// the prefix, as an indented JSON array.
func cacheShow(st *cstore.Store, keyPrefix string) int {
	es, err := st.Entries()
	if err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	var metas []cstore.Meta
	for _, e := range es {
		if strings.HasPrefix(e.Meta.Key, keyPrefix) {
			metas = append(metas, e.Meta)
		}
	}
	if len(metas) == 0 {
		fmt.Fprintf(os.Stderr, "relaxfault: no cache entry matches key prefix %q\n", keyPrefix)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(metas); err != nil {
		fmt.Fprintf(os.Stderr, "relaxfault: %v\n", err)
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
