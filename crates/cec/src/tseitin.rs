//! Tseitin encoding of AIGs into CNF.

use aig::{Aig, AigNode, Lit as ALit};
use sat::{cnf, ClauseSink, Lit as SLit};

/// The CNF image of an AIG inside a [`ClauseSink`] (a solver, the reference
/// oracle or a plain CNF container): one SAT variable per AIG node plus a
/// constant-false variable.
#[derive(Debug, Clone)]
pub struct AigCnf {
    /// SAT literal corresponding to each AIG node (uncomplemented).
    node_lits: Vec<SLit>,
    /// SAT literals of the primary inputs, in input order.
    pub input_lits: Vec<SLit>,
    /// SAT literals of the primary outputs, in output order.
    pub output_lits: Vec<SLit>,
}

impl AigCnf {
    /// Encodes `aig` into `solver`, sharing input variables if `shared_inputs`
    /// is given (used to build miters over common primary inputs).
    ///
    /// # Panics
    /// Panics if `shared_inputs` is provided with the wrong length.
    pub fn encode<S: ClauseSink>(
        solver: &mut S,
        aig: &Aig,
        shared_inputs: Option<&[SLit]>,
    ) -> Self {
        if let Some(shared) = shared_inputs {
            assert_eq!(
                shared.len(),
                aig.num_inputs(),
                "shared input vector length must match the AIG input count"
            );
        }
        let mut node_lits: Vec<SLit> = Vec::with_capacity(aig.num_nodes());
        // Node 0: constant false.
        let const_var = solver.new_var();
        let const_lit = SLit::pos(const_var);
        solver.add_clause(&[!const_lit]);
        node_lits.push(const_lit);

        let mut input_lits = Vec::with_capacity(aig.num_inputs());
        for id in aig.node_ids().skip(1) {
            let lit = match aig.node(id) {
                AigNode::Const => unreachable!("constant is node 0"),
                AigNode::Input { index } => {
                    let lit = match shared_inputs {
                        Some(shared) => shared[*index as usize],
                        None => SLit::pos(solver.new_var()),
                    };
                    input_lits.push(lit);
                    lit
                }
                AigNode::And { fanin0, fanin1 } => {
                    let out = SLit::pos(solver.new_var());
                    let a = Self::lift(&node_lits, *fanin0);
                    let b = Self::lift(&node_lits, *fanin1);
                    cnf::encode_and(solver, out, a, b);
                    out
                }
            };
            node_lits.push(lit);
        }
        let output_lits = aig
            .outputs()
            .iter()
            .map(|&po| Self::lift(&node_lits, po))
            .collect();
        AigCnf {
            node_lits,
            input_lits,
            output_lits,
        }
    }

    fn lift(node_lits: &[SLit], lit: ALit) -> SLit {
        let base = node_lits[lit.node().index()];
        if lit.is_complemented() {
            !base
        } else {
            base
        }
    }

    /// Returns the SAT literal of an AIG literal.
    pub fn lit(&self, lit: ALit) -> SLit {
        Self::lift(&self.node_lits, lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{SatResult, Solver};

    fn full_adder() -> Aig {
        let mut aig = Aig::new("fa");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let cin = aig.add_input("cin");
        let axb = aig.xor(a, b);
        let sum = aig.xor(axb, cin);
        let carry = aig.maj3(a, b, cin);
        aig.add_output(sum, "sum");
        aig.add_output(carry, "carry");
        aig
    }

    #[test]
    fn encoding_matches_evaluation() {
        let aig = full_adder();
        for pattern in 0..8u32 {
            let bits = [(pattern & 1) != 0, (pattern & 2) != 0, (pattern & 4) != 0];
            let expected = aig.evaluate(&bits);
            let mut solver = Solver::new();
            let cnf = AigCnf::encode(&mut solver, &aig, None);
            let assumptions: Vec<SLit> = cnf
                .input_lits
                .iter()
                .zip(bits.iter())
                .map(|(&l, &b)| if b { l } else { !l })
                .collect();
            assert_eq!(solver.solve_with_assumptions(&assumptions), SatResult::Sat);
            for (o, &out_lit) in cnf.output_lits.iter().enumerate() {
                assert_eq!(
                    solver.value(out_lit),
                    Some(expected[o]),
                    "pattern {pattern} output {o}"
                );
            }
        }
    }

    #[test]
    fn shared_inputs_are_reused() {
        let aig = full_adder();
        let mut solver = Solver::new();
        let shared: Vec<SLit> = (0..3).map(|_| SLit::pos(solver.new_var())).collect();
        let c1 = AigCnf::encode(&mut solver, &aig, Some(&shared));
        let c2 = AigCnf::encode(&mut solver, &aig, Some(&shared));
        assert_eq!(c1.input_lits, c2.input_lits);
        // Same circuit over the same inputs: outputs must agree; forcing them
        // to differ is UNSAT.
        let diff_assumption = vec![c1.output_lits[0], !c2.output_lits[0]];
        assert_eq!(
            solver.solve_with_assumptions(&diff_assumption),
            SatResult::Unsat
        );
    }

    #[test]
    fn constant_output_encoding() {
        let mut aig = Aig::new("consts");
        let _x = aig.add_input("x");
        aig.add_output(ALit::TRUE, "one");
        aig.add_output(ALit::FALSE, "zero");
        let mut solver = Solver::new();
        let cnf = AigCnf::encode(&mut solver, &aig, None);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.value(cnf.output_lits[0]), Some(true));
        assert_eq!(solver.value(cnf.output_lits[1]), Some(false));
    }
}
