//! Replacement and insertion policies.
//!
//! §2.1.2 of the paper compares seven policies on the baseline 32 KiB L1-I
//! (Figure 2): classic **LRU**; Qureshi et al.'s insertion-policy family
//! (**LIP** — insert at LRU, **BIP** — insert at MRU with low probability,
//! **DIP** — set-dueling between LRU and BIP); and Jaleel et al.'s
//! re-reference interval prediction family (**SRRIP**, **BRRIP**, and the
//! set-dueling **DRRIP**). The paper finds BRRIP/DRRIP best, reducing
//! misses by ~8% — far short of what larger caches (and SLICC) achieve.
//!
//! Policies are per-set state machines. The `Policy` object stores the
//! state for every set of one cache and is driven by [`crate::Cache`].

use slicc_common::SplitMix64;
use std::fmt;

/// Bimodal throttle: BIP inserts at MRU (and BRRIP at "long" instead of
/// "distant") with probability 1/32, per the original papers.
const BIMODAL_ONE_IN: u64 = 32;

/// Maximum re-reference prediction value for 2-bit RRIP.
const RRPV_MAX: u8 = 3;

/// The seven replacement/insertion policies of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used: insert at MRU, promote to MRU on hit.
    Lru,
    /// LRU-Insertion Policy: insert at LRU, promote to MRU on hit.
    Lip,
    /// Bimodal Insertion Policy: LIP, but insert at MRU 1/32 of the time.
    Bip,
    /// Dynamic Insertion Policy: set-dueling between LRU and BIP.
    Dip,
    /// Static RRIP: 2-bit re-reference intervals, insert "long".
    Srrip,
    /// Bimodal RRIP: insert "distant", 1/32 of the time "long".
    Brrip,
    /// Dynamic RRIP: set-dueling between SRRIP and BRRIP.
    Drrip,
}

impl PolicyKind {
    /// All policies, in Figure 2's presentation order.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Lip,
        PolicyKind::Bip,
        PolicyKind::Dip,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
    ];

    /// Short display name matching the paper's figure labels.
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Lip => "LIP",
            PolicyKind::Bip => "BIP",
            PolicyKind::Dip => "DIP",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Drrip => "DRRIP",
        }
    }

    /// Whether this policy uses set-dueling between two component
    /// policies.
    pub const fn is_dueling(self) -> bool {
        matches!(self, PolicyKind::Dip | PolicyKind::Drrip)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl slicc_common::StableHash for PolicyKind {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        // Variants hash by explicit ordinal so run-cache keys survive
        // reordering of the enum's declaration.
        let ordinal: u64 = match self {
            PolicyKind::Lru => 0,
            PolicyKind::Lip => 1,
            PolicyKind::Bip => 2,
            PolicyKind::Dip => 3,
            PolicyKind::Srrip => 4,
            PolicyKind::Brrip => 5,
            PolicyKind::Drrip => 6,
        };
        ordinal.stable_hash(h);
    }
}

/// Which component policy a set-dueling leader set is dedicated to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leader {
    /// The "primary" component (LRU for DIP, SRRIP for DRRIP).
    Primary,
    /// The "bimodal" component (BIP for DIP, BRRIP for DRRIP).
    Bimodal,
}

/// Set-dueling monitor: a saturating PSEL counter updated on misses in
/// leader sets; follower sets adopt whichever component is missing less.
#[derive(Clone, Debug)]
struct DuelMonitor {
    psel: u32,
    psel_max: u32,
    /// Leader stride: set `i` leads Primary if `i % stride == 0`,
    /// Bimodal if `i % stride == stride / 2`.
    stride: usize,
}

impl DuelMonitor {
    fn new(num_sets: usize) -> Self {
        // With 64-set L1s a stride of 32 gives two leader sets per
        // component, mirroring the constrained budget of real set-dueling.
        let stride = num_sets.clamp(2, 32);
        DuelMonitor { psel: 512, psel_max: 1023, stride }
    }

    fn leader(&self, set: usize) -> Option<Leader> {
        if set.is_multiple_of(self.stride) {
            Some(Leader::Primary)
        } else if set % self.stride == self.stride / 2 {
            Some(Leader::Bimodal)
        } else {
            None
        }
    }

    /// Records a miss in `set`; misses in a leader set vote against its
    /// component.
    fn on_miss(&mut self, set: usize) {
        match self.leader(set) {
            Some(Leader::Primary) => self.psel = (self.psel + 1).min(self.psel_max),
            Some(Leader::Bimodal) => self.psel = self.psel.saturating_sub(1),
            None => {}
        }
    }

    /// The component follower sets should use right now.
    fn winner(&self) -> Leader {
        if self.psel > self.psel_max / 2 {
            Leader::Bimodal
        } else {
            Leader::Primary
        }
    }

    /// The component `set` must use: its own if it is a leader, the
    /// winner's otherwise.
    fn component_for(&self, set: usize) -> Leader {
        self.leader(set).unwrap_or_else(|| self.winner())
    }
}

/// Per-set replacement state for one cache.
#[derive(Clone, Debug)]
pub(crate) struct Policy {
    kind: PolicyKind,
    assoc: usize,
    engine: Engine,
    duel: Option<DuelMonitor>,
    rng: SplitMix64,
}

#[derive(Clone, Debug)]
enum Engine {
    /// Recency-stack policies (LRU/LIP/BIP/DIP): per set, way indices
    /// ordered MRU..LRU in a flattened `num_sets * assoc` array.
    Stack { order: Vec<u8> },
    /// RRIP policies: per way, a 2-bit re-reference prediction value in a
    /// flattened `num_sets * assoc` array.
    Rrip { rrpv: Vec<u8> },
}

impl Policy {
    pub(crate) fn new(kind: PolicyKind, num_sets: usize, assoc: usize, seed: u64) -> Self {
        assert!(assoc <= u8::MAX as usize, "associativity must fit in u8");
        let engine = match kind {
            PolicyKind::Lru | PolicyKind::Lip | PolicyKind::Bip | PolicyKind::Dip => Engine::Stack {
                order: (0..num_sets).flat_map(|_| 0..assoc as u8).collect(),
            },
            PolicyKind::Srrip | PolicyKind::Brrip | PolicyKind::Drrip => {
                Engine::Rrip { rrpv: vec![RRPV_MAX; num_sets * assoc] }
            }
        };
        let duel = kind.is_dueling().then(|| DuelMonitor::new(num_sets));
        Policy { kind, assoc, engine, duel, rng: SplitMix64::new(seed) }
    }

    pub(crate) fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// A block in `set`/`way` was re-referenced.
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        match &mut self.engine {
            Engine::Stack { order } => promote_to_mru(&mut order[set * self.assoc..(set + 1) * self.assoc], way as u8),
            // Hit promotion (HP) variant: re-referenced blocks are
            // predicted near-immediate.
            Engine::Rrip { rrpv } => rrpv[set * self.assoc + way] = 0,
        }
    }

    /// A miss occurred in `set` (before victim selection). Updates the
    /// set-dueling monitor for DIP/DRRIP.
    pub(crate) fn on_miss(&mut self, set: usize) {
        if let Some(duel) = &mut self.duel {
            duel.on_miss(set);
        }
    }

    /// Chooses the way to evict from `set`, assuming every way is valid.
    pub(crate) fn choose_victim(&mut self, set: usize) -> usize {
        match &mut self.engine {
            Engine::Stack { order } => order[set * self.assoc + self.assoc - 1] as usize,
            Engine::Rrip { rrpv } => {
                let slice = &mut rrpv[set * self.assoc..(set + 1) * self.assoc];
                loop {
                    if let Some(way) = slice.iter().position(|&v| v == RRPV_MAX) {
                        return way;
                    }
                    for v in slice.iter_mut() {
                        *v += 1;
                    }
                }
            }
        }
    }

    /// A new block was installed in `set`/`way`; position it according to
    /// the policy's insertion rule.
    pub(crate) fn on_insert(&mut self, set: usize, way: usize) {
        let component = self.duel.as_ref().map(|d| d.component_for(set));
        let take_mru_path = match self.kind {
            PolicyKind::Lru | PolicyKind::Srrip => true,
            PolicyKind::Lip => false,
            PolicyKind::Bip | PolicyKind::Brrip => self.rng.next_below(BIMODAL_ONE_IN) == 0,
            PolicyKind::Dip | PolicyKind::Drrip => match component.expect("dueling policy has a monitor") {
                Leader::Primary => true,
                Leader::Bimodal => self.rng.next_below(BIMODAL_ONE_IN) == 0,
            },
        };
        match &mut self.engine {
            Engine::Stack { order } => {
                let slice = &mut order[set * self.assoc..(set + 1) * self.assoc];
                if take_mru_path {
                    promote_to_mru(slice, way as u8);
                } else {
                    demote_to_lru(slice, way as u8);
                }
            }
            Engine::Rrip { rrpv } => {
                // SRRIP inserts "long" (RRPV_MAX - 1); BRRIP inserts
                // "distant" (RRPV_MAX) except on the bimodal 1/32 path.
                rrpv[set * self.assoc + way] = if take_mru_path { RRPV_MAX - 1 } else { RRPV_MAX };
            }
        }
    }

    /// A block in `set`/`way` was invalidated; make the way maximally
    /// eviction-eligible.
    pub(crate) fn on_invalidate(&mut self, set: usize, way: usize) {
        match &mut self.engine {
            Engine::Stack { order } => demote_to_lru(&mut order[set * self.assoc..(set + 1) * self.assoc], way as u8),
            Engine::Rrip { rrpv } => rrpv[set * self.assoc + way] = RRPV_MAX,
        }
    }

    /// For tests: the recency order of `set` (MRU first), if this is a
    /// stack policy.
    #[cfg(test)]
    fn stack_order(&self, set: usize) -> Option<Vec<u8>> {
        match &self.engine {
            Engine::Stack { order } => Some(order[set * self.assoc..(set + 1) * self.assoc].to_vec()),
            Engine::Rrip { .. } => None,
        }
    }

    /// For tests: the RRPV of `set`/`way`, if this is an RRIP policy.
    #[cfg(test)]
    fn rrpv_of(&self, set: usize, way: usize) -> Option<u8> {
        match &self.engine {
            Engine::Stack { .. } => None,
            Engine::Rrip { rrpv } => Some(rrpv[set * self.assoc + way]),
        }
    }
}

/// Moves `way` to the front (MRU) of a set's recency slice.
fn promote_to_mru(slice: &mut [u8], way: u8) {
    let pos = slice.iter().position(|&w| w == way).expect("way present in recency order");
    slice[..=pos].rotate_right(1);
}

/// Moves `way` to the back (LRU) of a set's recency slice.
fn demote_to_lru(slice: &mut [u8], way: u8) {
    let pos = slice.iter().position(|&w| w == way).expect("way present in recency order");
    slice[pos..].rotate_left(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_policy(kind: PolicyKind) -> Policy {
        Policy::new(kind, 64, 4, 1)
    }

    #[test]
    fn names_and_all_are_consistent() {
        let names: Vec<_> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP"]);
        assert_eq!(format!("{}", PolicyKind::Drrip), "DRRIP");
    }

    #[test]
    fn lru_promotes_on_hit_and_evicts_tail() {
        let mut p = stack_policy(PolicyKind::Lru);
        // initial order 0,1,2,3 (way 3 = LRU)
        assert_eq!(p.choose_victim(0), 3);
        p.on_hit(0, 3);
        assert_eq!(p.stack_order(0).unwrap(), vec![3, 0, 1, 2]);
        assert_eq!(p.choose_victim(0), 2);
    }

    #[test]
    fn lru_insert_goes_to_mru() {
        let mut p = stack_policy(PolicyKind::Lru);
        p.on_insert(0, 2);
        assert_eq!(p.stack_order(0).unwrap(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn lip_insert_goes_to_lru() {
        let mut p = stack_policy(PolicyKind::Lip);
        p.on_insert(0, 0);
        assert_eq!(p.stack_order(0).unwrap(), vec![1, 2, 3, 0]);
        // A LIP-inserted block is the immediate next victim.
        assert_eq!(p.choose_victim(0), 0);
        // ...unless it is re-referenced, which promotes it.
        p.on_hit(0, 0);
        assert_eq!(p.choose_victim(0), 3);
    }

    #[test]
    fn bip_inserts_at_lru_most_of_the_time() {
        let mut p = stack_policy(PolicyKind::Bip);
        let mut mru_inserts = 0;
        for _ in 0..3200 {
            p.on_insert(0, 1);
            if p.stack_order(0).unwrap()[0] == 1 {
                mru_inserts += 1;
            }
        }
        // Expect ~1/32 = 100 of 3200; accept a generous band.
        assert!((30..300).contains(&mru_inserts), "mru_inserts = {mru_inserts}");
    }

    #[test]
    fn srrip_victim_is_distant_block() {
        let mut p = Policy::new(PolicyKind::Srrip, 4, 4, 1);
        // Fresh sets: all RRPV = 3 (distant); way 0 is the first found.
        assert_eq!(p.choose_victim(0), 0);
        p.on_insert(0, 0); // inserted long (RRPV 2)
        p.on_hit(0, 1); // near-immediate (RRPV 0)
        assert_eq!(p.choose_victim(0), 2); // still distant
    }

    #[test]
    fn srrip_ages_when_no_distant_block() {
        let mut p = Policy::new(PolicyKind::Srrip, 1, 2, 1);
        p.on_hit(0, 0);
        p.on_hit(0, 1);
        // All RRPV 0: victim search must age everyone up to 3 and pick way 0.
        assert_eq!(p.choose_victim(0), 0);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Policy::new(PolicyKind::Brrip, 1, 4, 7);
        let mut distant = 0;
        let mut long = 0;
        for _ in 0..3200 {
            p.on_insert(0, 2);
            match p.rrpv_of(0, 2).unwrap() {
                3 => distant += 1,
                2 => long += 1,
                other => panic!("unexpected RRPV {other}"),
            }
        }
        // Expect ~31/32 distant, ~1/32 long.
        assert!(distant > 2800, "distant = {distant}");
        assert!((30..300).contains(&long), "long = {long}");
    }

    #[test]
    fn srrip_always_inserts_long() {
        let mut p = Policy::new(PolicyKind::Srrip, 1, 4, 7);
        for _ in 0..100 {
            p.on_insert(0, 1);
            assert_eq!(p.rrpv_of(0, 1), Some(2));
        }
    }

    #[test]
    fn dueling_monitor_converges_to_better_component() {
        let mut d = DuelMonitor::new(64);
        eprintln!("stride = {}", d.stride);
        assert_eq!(d.leader(0), Some(Leader::Primary));
        assert_eq!(d.leader(16), Some(Leader::Bimodal));
        assert_eq!(d.leader(5), None);
        // Hammer misses on the primary leader: bimodal should win.
        for _ in 0..600 {
            d.on_miss(0);
        }
        assert_eq!(d.winner(), Leader::Bimodal);
        assert_eq!(d.component_for(5), Leader::Bimodal);
        // Leaders always use their own component.
        assert_eq!(d.component_for(0), Leader::Primary);
        // Misses on the bimodal leader swing it back.
        for _ in 0..1200 {
            d.on_miss(16);
        }
        assert_eq!(d.winner(), Leader::Primary);
    }

    #[test]
    fn psel_saturates() {
        let mut d = DuelMonitor::new(64);
        for _ in 0..5000 {
            d.on_miss(0);
        }
        assert_eq!(d.psel, 1023);
        for _ in 0..5000 {
            d.on_miss(16);
        }
        assert_eq!(d.psel, 0);
    }

    #[test]
    fn invalidate_makes_way_next_victim() {
        for kind in [PolicyKind::Lru, PolicyKind::Srrip] {
            let mut p = Policy::new(kind, 4, 4, 1);
            for w in 0..4 {
                p.on_insert(0, w);
                p.on_hit(0, w);
            }
            p.on_invalidate(0, 1);
            assert_eq!(p.choose_victim(0), 1, "policy {kind}");
        }
    }

    #[test]
    fn promote_and_demote_helpers() {
        let mut s = vec![0u8, 1, 2, 3];
        promote_to_mru(&mut s, 2);
        assert_eq!(s, vec![2, 0, 1, 3]);
        demote_to_lru(&mut s, 0);
        assert_eq!(s, vec![2, 1, 3, 0]);
    }

    #[test]
    fn drrip_has_monitor_and_srrip_does_not() {
        assert!(Policy::new(PolicyKind::Drrip, 64, 4, 1).duel.is_some());
        assert!(Policy::new(PolicyKind::Srrip, 64, 4, 1).duel.is_none());
        assert!(PolicyKind::Dip.is_dueling());
        assert!(!PolicyKind::Bip.is_dueling());
    }
}
