package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pdds"
	"pdds/internal/network"
)

// digestsMain regenerates the committed digests of the simulator
// workloads' first simulation for a range of workload seeds:
//
//	perfbench digests -workload sim-link -seeds 0-99 -out perfbench/digests.json
//
// Existing entries for other workloads or seeds are kept.
func digestsMain(args []string) int {
	fs := flag.NewFlagSet("digests", flag.ContinueOnError)
	workload := fs.String("workload", "", "sim-link or sim-path")
	seeds := fs.String("seeds", "0-99", "inclusive seed range")
	out := fs.String("out", "perfbench/digests.json", "digest file to update")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var from, to uint64
	if _, err := fmt.Sscanf(*seeds, "%d-%d", &from, &to); err != nil || to < from {
		fmt.Fprintln(os.Stderr, "digests: -seeds wants <from>-<to>")
		return 2
	}
	table := digestTable{}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &table); err != nil {
			fmt.Fprintln(os.Stderr, "digests:", err)
			return 1
		}
	}
	if table[*workload] == nil {
		table[*workload] = map[string]string{}
	}
	for s := from; s <= to; s++ {
		d, err := firstDigest(*workload, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "digests:", err)
			return 1
		}
		table[*workload][fmt.Sprint(s)] = d
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", *workload, s, d)
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "digests:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "digests:", err)
		return 1
	}
	return 0
}

// firstDigest runs a workload's first simulation for a workload seed.
func firstDigest(workload string, seed uint64) (string, error) {
	switch workload {
	case "sim-link":
		rep, err := pdds.SimulateLink(linkConfig(simSeed(seed, 0), linkHorizon))
		if err != nil {
			return "", err
		}
		return digest(rep), nil
	case "sim-path":
		res, err := network.Run(pathConfig(simSeed(seed, 0)))
		if err != nil {
			return "", err
		}
		return digest(pathView(res)), nil
	}
	return "", fmt.Errorf("no digests for workload %q", workload)
}
