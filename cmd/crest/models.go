package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/crestlab/crest/internal/registry"
	"github.com/crestlab/crest/internal/server"
)

// parseQuotaSpec parses the -quota flag: comma-separated
// "name=rate[:burst]" entries in requests per second, with "*" naming
// the default quota applied to unlisted tenants.
func parseQuotaSpec(spec string) (registry.QuotaConfig, error) {
	var cfg registry.QuotaConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	cfg.Tenants = make(map[string]registry.TenantQuota)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return cfg, fmt.Errorf("bad -quota entry %q: want name=rate[:burst]", entry)
		}
		var q registry.TenantQuota
		rateStr, burstStr, hasBurst := strings.Cut(val, ":")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate <= 0 {
			return cfg, fmt.Errorf("bad -quota rate in %q", entry)
		}
		q.Rate = rate
		if hasBurst {
			burst, err := strconv.ParseFloat(burstStr, 64)
			if err != nil || burst <= 0 {
				return cfg, fmt.Errorf("bad -quota burst in %q", entry)
			}
			q.Burst = burst
		}
		if name == "*" {
			cfg.Default = q
		} else {
			cfg.Tenants[name] = q
		}
	}
	return cfg, nil
}

// cmdModels administers a registry-mode server's model lineages over its
// /v1/models endpoints:
//
//	crest models list     -url http://host:8080
//	crest models promote  -url http://host:8080 -lineage default -seq 3
//	crest models rollback -url http://host:8080 -lineage default
func cmdModels(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: crest models <list|promote|rollback> [flags]")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("models "+sub, flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "server base URL")
	lineage := fs.String("lineage", registry.DefaultLineage, "lineage name")
	seq := fs.Int("seq", 0, "version to promote (promote only)")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	switch sub {
	case "list":
		var doc struct {
			Lineages []registry.LineageInfo `json:"lineages"`
		}
		if err := modelsCall(ctx, http.MethodGet, *url+"/v1/models", nil, &doc); err != nil {
			return err
		}
		printLineages(doc.Lineages)
		return nil
	case "promote":
		if *seq <= 0 {
			return fmt.Errorf("promote needs -seq > 0")
		}
		body, _ := json.Marshal(server.PromoteRequest{Seq: *seq})
		var resp server.LifecycleResponse
		if err := modelsCall(ctx, http.MethodPost, *url+"/v1/models/"+*lineage+"/promote", body, &resp); err != nil {
			return err
		}
		fmt.Printf("%s: lineage %s active v%d\n", resp.Status, *lineage, resp.Lineage.Active)
		return nil
	case "rollback":
		var resp server.LifecycleResponse
		if err := modelsCall(ctx, http.MethodPost, *url+"/v1/models/"+*lineage+"/rollback", nil, &resp); err != nil {
			return err
		}
		fmt.Printf("%s: lineage %s active v%d\n", resp.Status, *lineage, resp.Lineage.Active)
		return nil
	default:
		return fmt.Errorf("unknown models subcommand %q (want list, promote or rollback)", sub)
	}
}

// modelsCall performs one admin request, decoding the typed error body on
// failure.
func modelsCall(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, wireMessage(payload))
	}
	return json.Unmarshal(payload, out)
}

// printLineages renders the lineage table plus each lineage's most recent
// lifecycle decisions.
func printLineages(lineages []registry.LineageInfo) {
	fmt.Printf("%-16s %8s %8s %s\n", "lineage", "active", "lkg", "bad")
	for _, ln := range lineages {
		lkg := "-"
		if ln.LKG > 0 {
			lkg = fmt.Sprintf("v%d", ln.LKG)
		}
		bad := "-"
		if len(ln.Bad) > 0 {
			bad = fmt.Sprint(ln.Bad)
		}
		fmt.Printf("%-16s %8s %8s %s\n", ln.Name, fmt.Sprintf("v%d", ln.Active), lkg, bad)
		for _, d := range tailDecisions(ln.Decisions, 3) {
			auto := "manual"
			if d.Auto {
				auto = "auto"
			}
			fmt.Printf("    %s %s v%d -> v%d (%s): %s\n",
				d.Time.Format(time.RFC3339), d.Action, d.From, d.To, auto, d.Reason)
		}
	}
}

func tailDecisions(ds []registry.Decision, n int) []registry.Decision {
	if len(ds) <= n {
		return ds
	}
	return ds[len(ds)-n:]
}
