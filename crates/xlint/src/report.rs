//! Findings and reports.

use std::fmt;

/// Every rule the analyzer can fire, with a stable kebab-case name used
/// in diagnostics and `;! allow(...)` annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A register is read on some path before any write reaches it.
    ReadBeforeWrite,
    /// A register write that no instruction can ever observe.
    DeadStore,
    /// Instructions unreachable from every entry point.
    Unreachable,
    /// `sp` adjustments don't balance at `ret`, or differ across joins.
    StackMismatch,
    /// `ra` was clobbered by a `call` and not restored before `ret`.
    RaClobber,
    /// A load/store offset that breaks the access width's alignment.
    MisalignedMem,
    /// A `cust` instruction not present in the provided signature set.
    CustomUnknown,
    /// A `cust` instruction whose operand shape disagrees with its
    /// signature.
    CustomOperands,
    /// A branch whose condition depends on secret data.
    SecretBranch,
    /// A load whose address depends on secret data (table lookup).
    SecretLoad,
    /// A store whose address depends on secret data.
    SecretStore,
    /// An indirect jump (`jr`) through a secret-dependent register.
    SecretJump,
}

impl Rule {
    /// The rule's stable name (as used by `;! allow(name)`).
    pub fn name(self) -> &'static str {
        use Rule::*;
        match self {
            ReadBeforeWrite => "read-before-write",
            DeadStore => "dead-store",
            Unreachable => "unreachable",
            StackMismatch => "stack-mismatch",
            RaClobber => "ra-clobber",
            MisalignedMem => "misaligned-mem",
            CustomUnknown => "custom-unknown",
            CustomOperands => "custom-operands",
            SecretBranch => "secret-branch",
            SecretLoad => "secret-load",
            SecretStore => "secret-store",
            SecretJump => "secret-jump",
        }
    }

    /// Parses a rule name.
    pub fn from_name(s: &str) -> Option<Rule> {
        use Rule::*;
        Some(match s {
            "read-before-write" => ReadBeforeWrite,
            "dead-store" => DeadStore,
            "unreachable" => Unreachable,
            "stack-mismatch" => StackMismatch,
            "ra-clobber" => RaClobber,
            "misaligned-mem" => MisalignedMem,
            "custom-unknown" => CustomUnknown,
            "custom-operands" => CustomOperands,
            "secret-branch" => SecretBranch,
            "secret-load" => SecretLoad,
            "secret-store" => SecretStore,
            "secret-jump" => SecretJump,
            _ => return None,
        })
    }

    /// Whether a firing of this rule is an error (fails the lint) or a
    /// warning.
    pub fn severity(self) -> Severity {
        use Rule::*;
        match self {
            ReadBeforeWrite | StackMismatch | RaClobber | SecretBranch | SecretLoad
            | SecretStore | SecretJump | CustomOperands => Severity::Error,
            DeadStore | Unreachable | MisalignedMem | CustomUnknown => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but potentially intended.
    Warning,
    /// A correctness or constant-time violation.
    Error,
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Instruction index the finding anchors to.
    pub pc: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based source line of `pc`, when the program carries line info.
    pub line: Option<usize>,
    /// Entry point (global label) whose analysis produced the finding;
    /// `None` for whole-program rules like unreachability.
    pub entry: Option<String>,
    /// Human-readable description with register/operand specifics.
    pub message: String,
}

impl Finding {
    /// The finding's severity (from its rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        match self.line {
            Some(line) => write!(f, "line {line}: ")?,
            None => write!(f, "pc {}: ", self.pc)?,
        }
        write!(f, "{sev}[{}]: {}", self.rule, self.message)?;
        if let Some(entry) = &self.entry {
            write!(f, " (analyzing entry `{entry}`)")?;
        }
        Ok(())
    }
}

/// The analyzer's output: all findings, sorted by program position.
#[derive(Debug, Clone, Default)]
pub struct Report {
    findings: Vec<Finding>,
}

impl Report {
    pub(crate) fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    pub(crate) fn finish(&mut self) {
        self.findings.sort();
        self.findings.dedup();
    }

    /// Rebases every finding's 1-based line so line 1 of the analyzed
    /// unit reports as `first_line` — used when the unit was sliced out
    /// of a larger file and diagnostics must be file-absolute.
    pub(crate) fn rebase_lines(&mut self, first_line: usize) {
        let delta = first_line.saturating_sub(1);
        for f in &mut self.findings {
            if let Some(line) = &mut f.line {
                *line += delta;
            }
        }
    }

    /// All findings in program order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Findings of error severity.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
    }

    /// True when no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// True when no *error* fired (warnings allowed).
    pub fn no_errors(&self) -> bool {
        self.errors().next().is_none()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        let errors = self.errors().count();
        let warnings = self.findings.len() - errors;
        writeln!(f, "{errors} error(s), {warnings} warning(s)")
    }
}
