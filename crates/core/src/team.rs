//! Team formation for the type-aware variants (SLICC-SW, SLICC-Pp).
//!
//! §4.3.2: "Using thread type information, SLICC groups similar threads
//! into teams. [...] Team sizes differ and for an N-core architecture we
//! categorize them into large (1.5× to 2× N threads), medium (0.5× to
//! 1.5× N threads), and small (less than 0.5× N threads) teams. [...]
//! When large teams are scheduled, they are allowed to execute on all
//! cores. Medium size teams are limited to half the resources (0.5× N
//! cores). Threads of a small team are treated as stray threads, and are
//! not grouped." The oldest team is scheduled first, without pre-emption
//! if possible.

use slicc_common::{ThreadId, TxnTypeId};

/// A team's size classification relative to the core count N.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TeamKind {
    /// ≥ 1.5 N threads: may run on all cores.
    Large,
    /// 0.5 N – 1.5 N threads: limited to half the cores.
    Medium,
    /// < 0.5 N threads: members are strays, scheduled individually.
    Stray,
}

/// A planned team: same-type threads in arrival order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TeamPlan {
    /// Member threads, oldest first.
    pub members: Vec<ThreadId>,
    /// Size classification.
    pub kind: TeamKind,
    /// Arrival position of the oldest member (the team's timestamp:
    /// "The timestamp of a team is that of its oldest thread").
    pub arrival: usize,
}

/// Groups an arrival-ordered thread list into teams.
#[derive(Clone, Copy, Debug)]
pub struct TeamFormer {
    n_cores: usize,
}

impl TeamFormer {
    /// Creates a former for an `n_cores` machine.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        TeamFormer { n_cores }
    }

    /// Classifies a member count.
    pub fn classify(&self, size: usize) -> TeamKind {
        let n2 = 2 * size; // compare against halves without floats
        if n2 >= 3 * self.n_cores {
            TeamKind::Large
        } else if n2 >= self.n_cores {
            TeamKind::Medium
        } else {
            TeamKind::Stray
        }
    }

    /// Maximum team size (2 N).
    pub fn max_team_size(&self) -> usize {
        2 * self.n_cores
    }

    /// Forms teams from `threads` (in arrival order), returned oldest
    /// first. Same-type threads chunk greedily into teams of at most 2 N;
    /// each chunk is classified by its size.
    pub fn form_teams(&self, threads: &[(ThreadId, TxnTypeId)]) -> Vec<TeamPlan> {
        let mut open: Vec<(TxnTypeId, Vec<ThreadId>, usize)> = Vec::new();
        let mut done: Vec<TeamPlan> = Vec::new();
        for (arrival, &(thread, ty)) in threads.iter().enumerate() {
            match open.iter_mut().find(|(t, _, _)| *t == ty) {
                Some((_, members, _)) => {
                    members.push(thread);
                    if members.len() == self.max_team_size() {
                        let (_, members, arr) = open.remove(
                            open.iter().position(|(t, _, _)| *t == ty).expect("entry exists"),
                        );
                        done.push(self.plan(members, arr));
                    }
                }
                None => open.push((ty, vec![thread], arrival)),
            }
        }
        for (_, members, arr) in open {
            done.push(self.plan(members, arr));
        }
        done.sort_by_key(|p| p.arrival);
        done
    }

    fn plan(&self, members: Vec<ThreadId>, arrival: usize) -> TeamPlan {
        let kind = self.classify(members.len());
        TeamPlan { members, kind, arrival }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(spec: &[(u32, u16)]) -> Vec<(ThreadId, TxnTypeId)> {
        spec.iter().map(|&(t, ty)| (ThreadId::new(t), TxnTypeId::new(ty))).collect()
    }

    /// The type every member of `plan` has in the input `ts`; panics if
    /// the members do not all share one type.
    fn plan_type(ts: &[(ThreadId, TxnTypeId)], plan: &TeamPlan) -> TxnTypeId {
        let type_of = |m: &ThreadId| ts.iter().find(|(t, _)| t == m).expect("member is an input").1;
        let ty = type_of(&plan.members[0]);
        assert!(plan.members.iter().all(|m| type_of(m) == ty), "mixed-type team {plan:?}");
        ty
    }

    #[test]
    fn classification_boundaries_for_16_cores() {
        let f = TeamFormer::new(16);
        assert_eq!(f.classify(32), TeamKind::Large);
        assert_eq!(f.classify(24), TeamKind::Large);
        assert_eq!(f.classify(23), TeamKind::Medium);
        assert_eq!(f.classify(8), TeamKind::Medium);
        assert_eq!(f.classify(7), TeamKind::Stray);
        assert_eq!(f.classify(1), TeamKind::Stray);
        assert_eq!(f.max_team_size(), 32);
    }

    #[test]
    fn same_type_threads_group_together() {
        let f = TeamFormer::new(4);
        let ts = threads(&[(0, 0), (1, 1), (2, 0), (3, 0), (4, 1)]);
        let teams = f.form_teams(&ts);
        assert_eq!(teams.len(), 2);
        assert_eq!(plan_type(&ts, &teams[0]), TxnTypeId::new(0));
        assert_eq!(teams[0].members, vec![ThreadId::new(0), ThreadId::new(2), ThreadId::new(3)]);
        assert_eq!(plan_type(&ts, &teams[1]), TxnTypeId::new(1));
        assert_eq!(teams[1].members, vec![ThreadId::new(1), ThreadId::new(4)]);
    }

    #[test]
    fn teams_cap_at_two_n() {
        let f = TeamFormer::new(2); // max team size 4
        let ts: Vec<_> = (0..10).map(|i| (ThreadId::new(i), TxnTypeId::new(0))).collect();
        let teams = f.form_teams(&ts);
        assert_eq!(teams.len(), 3);
        assert_eq!(teams[0].members.len(), 4);
        assert_eq!(teams[1].members.len(), 4);
        assert_eq!(teams[2].members.len(), 2);
        assert_eq!(teams[0].kind, TeamKind::Large);
        assert_eq!(teams[2].kind, TeamKind::Medium);
    }

    #[test]
    fn teams_ordered_by_oldest_member() {
        let f = TeamFormer::new(16);
        // Type 1 arrives first but type 0 fills faster — order is by
        // arrival of the oldest member, not completion.
        let ts = threads(&[(10, 1), (11, 0), (12, 0), (13, 1)]);
        let teams = f.form_teams(&ts);
        assert_eq!(plan_type(&ts, &teams[0]), TxnTypeId::new(1));
        assert_eq!(teams[0].arrival, 0);
        assert_eq!(teams[1].arrival, 1);
    }

    #[test]
    fn rare_types_become_strays() {
        let f = TeamFormer::new(16);
        let mut ts = Vec::new();
        for i in 0..30 {
            ts.push((ThreadId::new(i), TxnTypeId::new(0)));
        }
        ts.push((ThreadId::new(30), TxnTypeId::new(9)));
        let teams = f.form_teams(&ts);
        assert_eq!(teams.len(), 2);
        assert_eq!(teams[0].kind, TeamKind::Large);
        let stray = &teams[1];
        assert_eq!(stray.kind, TeamKind::Stray);
        assert_eq!(stray.members.len(), 1);
    }

    #[test]
    fn empty_input_yields_no_teams() {
        assert!(TeamFormer::new(8).form_teams(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = TeamFormer::new(0);
    }

    /// Random arrivals over random core counts: every thread lands in
    /// exactly one team, teams are single-type, bounded, classified by
    /// size, keep arrival order inside and come out oldest-first.
    #[test]
    fn random_arrivals_partition_into_ordered_teams() {
        use slicc_common::SplitMix64;
        let mut rng = SplitMix64::new(0x7ea5);
        for _ in 0..200 {
            let n_cores = rng.next_below(31) as usize + 1;
            let former = TeamFormer::new(n_cores);
            let ts: Vec<(ThreadId, TxnTypeId)> = (0..rng.next_below(121) as u32)
                .map(|i| (ThreadId::new(i), TxnTypeId::new(rng.next_below(5) as u16)))
                .collect();
            let teams = former.form_teams(&ts);
            let mut seen: Vec<ThreadId> =
                teams.iter().flat_map(|p| p.members.iter().copied()).collect();
            seen.sort_unstable();
            assert_eq!(seen, ts.iter().map(|&(t, _)| t).collect::<Vec<_>>(), "{n_cores} cores");
            for plan in &teams {
                assert!(!plan.members.is_empty() && plan.members.len() <= former.max_team_size());
                assert_eq!(former.classify(plan.members.len()), plan.kind);
                plan_type(&ts, plan);
                assert!(plan.members.windows(2).all(|w| w[0] < w[1]), "members keep arrival order");
                if plan.kind == TeamKind::Stray {
                    assert!(2 * plan.members.len() < n_cores);
                }
            }
            assert!(
                teams.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "teams come out oldest-first"
            );
        }
    }
}
