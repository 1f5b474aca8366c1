package lg

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"sync/atomic"

	"mlpeering/internal/bgp"
)

// Client queries one looking glass over HTTP and parses the router-style
// text it returns. Every query increments a counter so experiments can
// account cost exactly as equation (1)/(2) of the paper do.
type Client struct {
	// BaseURL is the LG endpoint, e.g. "http://lg.example/decix-rs1".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	queries atomic.Int64
}

// QueryCount returns the number of HTTP queries issued so far.
func (c *Client) QueryCount() int { return int(c.queries.Load()) }

// ResetQueryCount zeroes the counter.
func (c *Client) ResetQueryCount() { c.queries.Store(0) }

func (c *Client) fetch(ctx context.Context, command string) (string, error) {
	c.queries.Add(1)
	u := c.BaseURL + "?q=" + url.QueryEscape(command)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("lg: querying %s: %w", c.BaseURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("lg: reading %s: %w", c.BaseURL, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("lg: %s: HTTP %d: %s", c.BaseURL, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return string(body), nil
}

// Summary runs "show ip bgp summary": step 1 of the algorithm, the
// connectivity data A_RS.
func (c *Client) Summary(ctx context.Context) ([]PeerSummary, error) {
	text, err := c.fetch(ctx, "show ip bgp summary")
	if err != nil {
		return nil, err
	}
	return ParseSummary(text)
}

// NeighborRoutes runs "show ip bgp neighbors <addr> routes": step 2,
// the per-member prefix sets P_a.
func (c *Client) NeighborRoutes(ctx context.Context, addr netip.Addr) ([]bgp.Prefix, error) {
	text, err := c.fetch(ctx, fmt.Sprintf("show ip bgp neighbors %s routes", addr))
	if err != nil {
		return nil, err
	}
	return ParseRoutes(text)
}

// Lookup runs "show ip bgp <prefix>": step 3, the per-prefix community
// sets C_{a,p}.
func (c *Client) Lookup(ctx context.Context, prefix bgp.Prefix) ([]PathInfo, error) {
	text, err := c.fetch(ctx, "show ip bgp "+prefix.String())
	if err != nil {
		return nil, err
	}
	return ParsePrefixResponse(text)
}

// ParseSummary extracts neighbor rows from "show ip bgp summary" text.
func ParseSummary(text string) ([]PeerSummary, error) {
	var out []PeerSummary
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			continue
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			continue // header or banner line
		}
		asn, err := bgp.ParseASN(fields[2])
		if err != nil {
			return nil, fmt.Errorf("lg: summary row %q: %w", sc.Text(), err)
		}
		var pfx int
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%d", &pfx); err != nil {
			continue // neighbor in a non-established state
		}
		out = append(out, PeerSummary{Addr: addr, ASN: asn, PfxCount: pfx})
	}
	return out, sc.Err()
}

// ParseRoutes extracts prefixes from "show ip bgp neighbors ... routes"
// text.
func ParseRoutes(text string) ([]bgp.Prefix, error) {
	var out []bgp.Prefix
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(line, "*") {
			continue
		}
		p, err := bgp.ParsePrefix(fields[1])
		if err != nil {
			return nil, fmt.Errorf("lg: route row %q: %w", line, err)
		}
		out = append(out, p)
	}
	return out, sc.Err()
}

// ParsePrefixResponse extracts paths and communities from
// "show ip bgp <prefix>" text.
func ParsePrefixResponse(text string) ([]PathInfo, error) {
	if strings.Contains(text, "Network not in table") {
		return nil, nil
	}
	var out []PathInfo
	var cur *PathInfo
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
			cur = nil
		}
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "    ") && trimmed != "":
			// Path line: two-space indent.
			flush()
			if trimmed == "Local" {
				cur = &PathInfo{}
				continue
			}
			var path []bgp.ASN
			ok := true
			for _, f := range strings.Fields(trimmed) {
				a, err := bgp.ParseASN(f)
				if err != nil {
					ok = false
					break
				}
				path = append(path, a)
			}
			if !ok {
				continue
			}
			cur = &PathInfo{Path: path}
		case cur != nil && strings.HasPrefix(trimmed, "Community:"):
			cs, err := bgp.ParseCommunities(strings.TrimSpace(strings.TrimPrefix(trimmed, "Community:")))
			if err != nil {
				return nil, fmt.Errorf("lg: community line %q: %w", trimmed, err)
			}
			cur.Communities = cs
		case cur != nil && strings.HasPrefix(trimmed, "Origin "):
			if strings.Contains(trimmed, ", best") {
				cur.Best = true
			}
		case cur != nil && strings.Contains(trimmed, " from "):
			nh := strings.Fields(trimmed)
			if len(nh) > 0 {
				if a, err := netip.ParseAddr(nh[0]); err == nil {
					cur.NextHop = a
				}
			}
		}
	}
	flush()
	return out, sc.Err()
}
