package topology

import (
	"fmt"
	"net/netip"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// finalizeMemberData encodes every member's filter communities into its
// policy record (fixing the scheme's 32-bit alias table
// deterministically) and assigns IXP LAN addresses. Called as the last
// generation stage.
func (b *Builder) finalizeMemberData() error {
	for i, info := range b.IXPs {
		// LAN 172.(16+i).0.0/16, addresses handed out in member order.
		if i > 200 {
			return fmt.Errorf("topology: too many IXPs for LAN numbering")
		}
		info.MemberAddrs = make(map[bgp.ASN]netip.Addr, len(info.Members))
		info.RSAddr = netip.AddrFrom4([4]byte{172, byte(16 + i), 0, 1})
		for j, m := range info.SortedMembers() {
			hi := byte(1 + (j+2)/250)
			lo := byte((j+2)%250 + 1)
			info.MemberAddrs[m] = netip.AddrFrom4([4]byte{172, byte(16 + i), hi, lo})
		}

		pols := b.RSPolicies[info.Name]
		scheme := &info.Scheme
		for _, m := range info.SortedRSMembers() {
			p, ok := pols[m]
			if !ok {
				return fmt.Errorf("topology: %s member %s missing filter during finalize", info.Name, m)
			}
			cs, err := p.Export.Communities(scheme)
			if err != nil {
				return fmt.Errorf("topology: encoding %s filter for %s: %w", info.Name, m, err)
			}
			if b.AS(m).OmitsDefaultALL && p.Export.Mode == ixp.ModeAllExcept {
				cs = ixp.OmitDefault(cs, *scheme)
			}
			p.Comms = cs
			pols[m] = p
		}
	}
	return nil
}
