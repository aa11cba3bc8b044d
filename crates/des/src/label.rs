//! Labels as rows: an activity label or a resource name is a template,
//! a prefix and two integers, rendered to text only when something reads
//! it (DESIGN.md §10, "A label is a row").
//!
//! A template is the fixed text of a family of labels with `{}` holes
//! for its integer arguments — `"node{}.membus"`, `"c{}.r{}.ex"` — and a
//! prefix is a job's namespace (`j3.`), written in front of the whole
//! label. A simulation interns both once ([`crate::Simulation::template`],
//! [`crate::Simulation::prefix`]); registering an activity then pushes a
//! 16-byte [`Label`] and formats nothing. A string literal names as a
//! template with no arguments: interned once, it renders as written.

use crate::engine::index32;
use std::fmt;
use std::ops::Range;

/// A template interned in a simulation (see
/// [`crate::Simulation::template`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tpl(u32);

/// A label prefix interned in a simulation (see
/// [`crate::Simulation::prefix`]); [`Prefix::NONE`] is the empty one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix(u32);

impl Prefix {
    /// No prefix.
    pub const NONE: Prefix = Prefix(0);
}

/// An activity label or resource name as numbers: `prefix`, then the
/// template `body` with its holes filled by `args` in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    body: u32,
    prefix: u32,
    args: [u32; 2],
}

impl Label {
    /// The label `prefix` + `tpl` with its holes filled by `args`, in
    /// order; arguments past the template's holes are ignored.
    pub fn new(prefix: Prefix, tpl: Tpl, args: [u32; 2]) -> Label {
        Label {
            body: tpl.0,
            prefix: prefix.0,
            args,
        }
    }

    /// The index of the label's template.
    pub(crate) fn template(self) -> usize {
        self.body as usize
    }
}

/// A label argument: an index the caller counts in `usize` (a rank, a
/// node, a round) as the `u32` a row stores. Panics past `u32::MAX`.
pub fn arg(n: usize) -> u32 {
    index32(n, "as a label argument")
}

/// Write `template` with its holes filled by `args`, in order — the
/// body of every template row as it renders.
pub fn fill(out: &mut impl fmt::Write, template: &str, args: [u32; 2]) -> fmt::Result {
    let mut pieces = template.split("{}");
    out.write_str(pieces.next().unwrap_or(""))?;
    for (piece, arg) in pieces.zip(args) {
        // Decimal digits by hand: a trace renders every label it names,
        // and `Formatter`'s integer path is most of the cost of one.
        let (mut digits, mut n, mut at) = ([0u8; 10], arg, 10);
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))?;
        out.write_str(piece)?;
    }
    Ok(())
}

/// What [`crate::Simulation::activity`] and
/// [`crate::Simulation::add_resource`] take for a name: a [`Label`] row
/// as it is, or a string literal, interned as a template once and
/// filled with no arguments (a hole in it reads `0`).
pub trait IntoLabel {
    /// This name as a row of `names`.
    fn into_label(self, names: &mut Names) -> Label;
}

impl IntoLabel for Label {
    fn into_label(self, _: &mut Names) -> Label {
        self
    }
}

impl IntoLabel for &'static str {
    fn into_label(self, names: &mut Names) -> Label {
        Label::new(Prefix::NONE, names.template(self), [0, 0])
    }
}

/// What a simulation's label rows point into: its templates and its
/// prefixes (prefix `p` is `prefixes[p - 1]`, a range of `text`).
#[derive(Debug, Clone, Default)]
pub struct Names {
    templates: Vec<&'static str>,
    prefixes: Vec<Range<u32>>,
    text: String,
}

impl Names {
    /// The handle of `template`, interned if new.
    ///
    /// # Panics
    /// Panics if the template has more than two holes.
    pub(crate) fn template(&mut self, template: &'static str) -> Tpl {
        if let Some(i) = self.templates.iter().position(|&t| t == template) {
            return Tpl(i as u32);
        }
        assert!(
            template.matches("{}").count() <= 2,
            "label template `{template}` has more than two holes"
        );
        self.templates.push(template);
        Tpl(index32(self.templates.len() - 1, "label templates"))
    }

    /// The handle of `prefix`, interned if new.
    pub(crate) fn prefix(&mut self, prefix: &str) -> Prefix {
        if prefix.is_empty() {
            return Prefix::NONE;
        }
        let known = (self.prefixes.iter()).position(|r| self.slice(r.clone()) == prefix);
        let i = known.unwrap_or_else(|| {
            let start = index32(self.text.len(), "text bytes");
            self.text.push_str(prefix);
            self.prefixes
                .push(start..index32(self.text.len(), "text bytes"));
            self.prefixes.len() - 1
        });
        Prefix(index32(i + 1, "label prefixes"))
    }

    fn slice(&self, range: Range<u32>) -> &str {
        &self.text[range.start as usize..range.end as usize]
    }

    /// The text `label` reads as, rendered when displayed.
    pub(crate) fn show(&self, label: Label) -> Shown<'_> {
        Shown { names: self, label }
    }

    /// Per template, the class ([`crate::resource_class`]) of every
    /// resource named by it when the template alone decides it — its
    /// text after the last hole holds a `.` — else `None`.
    pub(crate) fn fixed_classes(&self) -> Vec<Option<&'static str>> {
        let tail = |t: &'static str| t.rsplit("{}").next().unwrap_or(t);
        let class = |t| tail(t).rsplit_once('.').map(|(_, class)| class);
        self.templates.iter().map(|&t| class(t)).collect()
    }
}

/// A label with the table it reads through: `Display` renders it.
pub(crate) struct Shown<'a> {
    names: &'a Names,
    label: Label,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (names, label) = (self.names, self.label);
        if let Some(p) = label.prefix.checked_sub(1) {
            f.write_str(names.slice(names.prefixes[p as usize].clone()))?;
        }
        fill(f, names.templates[label.body as usize], label.args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_label_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Label>(), 16);
    }

    #[test]
    fn rows_render_their_prefix_template_and_arguments() {
        let mut names = Names::default();
        let [io, ost, start, bus] =
            ["io.rank{}.ost{}", "ost{}", "start", "node{}.membus"].map(|t| names.template(t));
        assert_eq!(names.template("ost{}"), ost, "interned once");
        let j3 = names.prefix("j3.");
        assert_eq!(names.prefix("j3."), j3);
        assert_eq!(names.prefix(""), Prefix::NONE);
        let show = |names: &Names, l| names.show(l).to_string();
        assert_eq!(show(&names, Label::new(j3, io, [7, 2])), "j3.io.rank7.ost2");
        assert_eq!(
            show(&names, Label::new(Prefix::NONE, ost, [17, 99])),
            "ost17"
        );
        assert_eq!(show(&names, Label::new(j3, start, [0, 0])), "j3.start");
        assert_eq!(show(&names, Label::new(j3, ost, [0, 0])), "j3.ost0");
        let widest = Label::new(Prefix::NONE, io, [u32::MAX, 10]);
        assert_eq!(show(&names, widest), "io.rank4294967295.ost10");
        let classes = names.fixed_classes();
        let class = |l: Label| classes[l.template()];
        let none = Prefix::NONE;
        assert_eq!(class(Label::new(none, bus, [4, 0])), Some("membus"));
        assert_eq!(class(Label::new(j3, io, [1, 1])), None);
        assert_eq!(class(Label::new(none, ost, [1, 1])), None);
    }

    #[test]
    fn a_literal_is_interned_once_and_renders_as_written() {
        let mut names = Names::default();
        let rows =
            ["nœud3.mémoire→ost7", "", "nœud3.mémoire→ost7"].map(|l| l.into_label(&mut names));
        assert_eq!(rows[0], rows[2]);
        assert_eq!(names.templates, ["nœud3.mémoire→ost7", ""]);
        let shown = rows.map(|l| names.show(l).to_string());
        assert_eq!(shown, ["nœud3.mémoire→ost7", "", "nœud3.mémoire→ost7"]);
        assert_eq!(names.fixed_classes(), [Some("mémoire→ost7"), None]);
    }
}
