package main

import (
	_ "embed"
	"encoding/json"
)

// pinsJSON holds the statistics digest of every operation at its
// workload's default seed: a run at that seed whose simulated statistics
// differ from the pin fails the operation.
//
//go:embed pins.json
var pinsJSON []byte

var pinned = mustPins(pinsJSON)

func mustPins(data []byte) map[string]string {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		panic("pins.json: " + err.Error())
	}
	return m
}
