//! SPICE-deck subset reader and writer.
//!
//! The paper's LPE tool "generates the LPE deck" consumed by the circuit
//! simulator; `mpvar` keeps that file interface. Supported card types:
//!
//! ```text
//! * comment                      ; also "; comment"
//! Rname n1 n2 value
//! Cname n1 n2 value
//! Vname p  n  DC 0.7
//! Vname p  n  PULSE(v0 v1 delay rise fall width period)
//! Vname p  n  PWL(t1 v1 t2 v2 ...)
//! Iname p  n  DC 1u
//! Mname d g s modelname          ; bulk tied to source
//! + continuation of the previous card
//! .tran step stop
//! .ic v(node)=value [v(node)=value ...]
//! .end
//! ```
//!
//! MOSFET model names are resolved against a caller-supplied model map
//! (the tech file is the source of truth; decks reference by name).

use std::collections::HashMap;

use crate::error::SpiceError;
use crate::mosfet::MosfetModel;
use crate::netlist::{Element, Netlist};
use crate::value::{format_value, parse_value};
use crate::waveform::Waveform;

/// A parsed deck: the netlist plus analysis directives.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The circuit.
    pub netlist: Netlist,
    /// `.tran step stop`, if present.
    pub tran: Option<(f64, f64)>,
    /// `.ic` initial conditions as `(node_name, volts)` pairs.
    pub initial_conditions: Vec<(String, f64)>,
    /// Title from the first line when it is a comment.
    pub title: Option<String>,
}

/// Parses a deck, resolving MOSFET model names through `models`.
///
/// # Errors
///
/// [`SpiceError::Parse`] with a 1-based line number for syntax errors or
/// unknown model names, plus the usual netlist validation errors.
pub fn parse_deck(text: &str, models: &HashMap<String, MosfetModel>) -> Result<Deck, SpiceError> {
    // Join continuation lines first, remembering original line numbers.
    let mut cards: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if let Some(rest) = line.trim_start().strip_prefix('+') {
            match cards.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(rest.trim());
                }
                None => {
                    return Err(SpiceError::Parse {
                        line: lineno,
                        message: "continuation line with nothing to continue".into(),
                    })
                }
            }
        } else {
            cards.push((lineno, line.to_string()));
        }
    }

    let mut deck = Deck {
        netlist: Netlist::new(),
        tran: None,
        initial_conditions: Vec::new(),
        title: None,
    };

    let perr = |line: usize, message: String| SpiceError::Parse { line, message };

    for (i, (lineno, card)) in cards.iter().enumerate() {
        let lineno = *lineno;
        let trimmed = card.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('*') || trimmed.starts_with(';') {
            if i == 0 {
                deck.title = Some(trimmed[1..].trim().to_string());
            }
            continue;
        }

        let upper = trimmed.to_ascii_uppercase();
        if upper.starts_with(".END") {
            break;
        }
        if upper.starts_with(".TRAN") {
            let toks: Vec<&str> = trimmed.split_whitespace().collect();
            if toks.len() < 3 {
                return Err(perr(lineno, ".tran needs <step> <stop>".into()));
            }
            let step = parse_value(toks[1])
                .map_err(|_| perr(lineno, format!("bad .tran step `{}`", toks[1])))?;
            let stop = parse_value(toks[2])
                .map_err(|_| perr(lineno, format!("bad .tran stop `{}`", toks[2])))?;
            deck.tran = Some((step, stop));
            continue;
        }
        if upper.starts_with(".IC") {
            for assignment in trimmed.split_whitespace().skip(1) {
                let (lhs, rhs) = assignment
                    .split_once('=')
                    .ok_or_else(|| perr(lineno, format!("bad .ic assignment `{assignment}`")))?;
                let node = lhs
                    .trim()
                    .strip_prefix("v(")
                    .or_else(|| lhs.trim().strip_prefix("V("))
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| {
                        perr(
                            lineno,
                            format!("expected v(node)=value, got `{assignment}`"),
                        )
                    })?;
                let volts =
                    parse_value(rhs).map_err(|_| perr(lineno, format!("bad .ic value `{rhs}`")))?;
                deck.initial_conditions.push((node.to_string(), volts));
            }
            continue;
        }
        if upper.starts_with('.') {
            return Err(perr(lineno, format!("unsupported directive `{trimmed}`")));
        }

        // Element card. Split but keep parenthesized groups together.
        let toks = tokenize_card(trimmed);
        if toks.len() < 3 {
            return Err(perr(lineno, format!("short element card `{trimmed}`")));
        }
        let name = toks[0].clone();
        let kind = name
            .chars()
            .next()
            .expect("nonempty token")
            .to_ascii_uppercase();
        match kind {
            'R' | 'C' => {
                if toks.len() < 4 {
                    return Err(perr(lineno, format!("`{name}` needs 2 nodes and a value")));
                }
                let a = deck.netlist.node(&toks[1]);
                let b = deck.netlist.node(&toks[2]);
                let v = parse_value(&toks[3])
                    .map_err(|_| perr(lineno, format!("bad value `{}`", toks[3])))?;
                if kind == 'R' {
                    deck.netlist.add_resistor(&name, a, b, v)?;
                } else {
                    deck.netlist.add_capacitor(&name, a, b, v)?;
                }
            }
            'V' | 'I' => {
                if toks.len() < 4 {
                    return Err(perr(lineno, format!("`{name}` needs 2 nodes and a source")));
                }
                let p = deck.netlist.node(&toks[1]);
                let n = deck.netlist.node(&toks[2]);
                let wf = parse_waveform(&toks[3..], lineno)?;
                if kind == 'V' {
                    deck.netlist.add_vsource(&name, p, n, wf)?;
                } else {
                    deck.netlist.add_isource(&name, p, n, wf)?;
                }
            }
            'M' => {
                if toks.len() < 5 {
                    return Err(perr(
                        lineno,
                        format!("`{name}` needs d g s and a model name"),
                    ));
                }
                let d = deck.netlist.node(&toks[1]);
                let g = deck.netlist.node(&toks[2]);
                let s = deck.netlist.node(&toks[3]);
                let model = models
                    .get(toks[4].as_str())
                    .ok_or_else(|| perr(lineno, format!("unknown mosfet model `{}`", toks[4])))?;
                deck.netlist.add_mosfet(&name, d, g, s, *model)?;
            }
            other => {
                return Err(perr(lineno, format!("unsupported element type `{other}`")));
            }
        }
    }

    Ok(deck)
}

/// Splits an element card into tokens, keeping `PULSE(...)` / `PWL(...)`
/// groups as single tokens followed by their arguments.
fn tokenize_card(card: &str) -> Vec<String> {
    // Normalize parentheses to spaces inside function-style groups but
    // remember the function keyword.
    let mut out = Vec::new();
    let normalized = card.replace('(', " ( ").replace(')', " ) ");
    for t in normalized.split_whitespace() {
        out.push(t.to_string());
    }
    out
}

fn parse_waveform(toks: &[String], lineno: usize) -> Result<Waveform, SpiceError> {
    let perr = |message: String| SpiceError::Parse {
        line: lineno,
        message,
    };
    let head = toks[0].to_ascii_uppercase();
    match head.as_str() {
        "DC" => {
            let v = toks.get(1).ok_or_else(|| perr("DC needs a value".into()))?;
            Ok(Waveform::dc(
                parse_value(v).map_err(|_| perr(format!("bad DC value `{v}`")))?,
            ))
        }
        "PULSE" => {
            let args = paren_args(&toks[1..], lineno)?;
            if args.len() != 7 {
                return Err(perr(format!(
                    "PULSE needs 7 arguments (v0 v1 delay rise fall width period), got {}",
                    args.len()
                )));
            }
            Waveform::pulse(
                args[0], args[1], args[2], args[3], args[4], args[5], args[6],
            )
        }
        "PWL" => {
            let args = paren_args(&toks[1..], lineno)?;
            if args.is_empty() || args.len() % 2 != 0 {
                return Err(perr("PWL needs an even, nonzero argument count".into()));
            }
            let pts = args.chunks(2).map(|c| (c[0], c[1])).collect();
            Waveform::pwl(pts)
        }
        _ => {
            // Bare value means DC.
            Ok(Waveform::dc(parse_value(&toks[0]).map_err(|_| {
                perr(format!("bad source value `{}`", toks[0]))
            })?))
        }
    }
}

fn paren_args(toks: &[String], lineno: usize) -> Result<Vec<f64>, SpiceError> {
    let perr = |message: String| SpiceError::Parse {
        line: lineno,
        message,
    };
    let mut args = Vec::new();
    let mut iter = toks.iter();
    match iter.next().map(String::as_str) {
        Some("(") => {}
        other => return Err(perr(format!("expected `(`, got {other:?}"))),
    }
    for t in iter {
        if t == ")" {
            return Ok(args);
        }
        args.push(parse_value(t).map_err(|_| perr(format!("bad argument `{t}`")))?);
    }
    Err(perr("missing `)`".into()))
}

/// Renders a netlist (plus optional `.tran` and `.ic`) back to deck text.
///
/// The output parses back to an equivalent circuit with [`parse_deck`]
/// (MOSFET model names are emitted as `nmos` / `pmos` by polarity).
pub fn write_deck(
    net: &Netlist,
    title: &str,
    tran: Option<(f64, f64)>,
    initial_conditions: &[(String, f64)],
) -> String {
    let mut out = format!("* {title}\n");
    for e in net.elements() {
        match e {
            Element::Resistor { name, a, b, ohms } => {
                out.push_str(&format!(
                    "{name} {} {} {}\n",
                    net.node_name(*a),
                    net.node_name(*b),
                    format_value(*ohms)
                ));
            }
            Element::Capacitor { name, a, b, farads } => {
                out.push_str(&format!(
                    "{name} {} {} {}\n",
                    net.node_name(*a),
                    net.node_name(*b),
                    format_value(*farads)
                ));
            }
            Element::VSource {
                name,
                p,
                n,
                waveform,
            }
            | Element::ISource {
                name,
                p,
                n,
                waveform,
            } => {
                out.push_str(&format!(
                    "{name} {} {} {}\n",
                    net.node_name(*p),
                    net.node_name(*n),
                    format_waveform(waveform)
                ));
            }
            Element::Mosfet {
                name,
                d,
                g,
                s,
                model,
            } => {
                out.push_str(&format!(
                    "{name} {} {} {} {}\n",
                    net.node_name(*d),
                    net.node_name(*g),
                    net.node_name(*s),
                    model.params().polarity()
                ));
            }
        }
    }
    for (node, v) in initial_conditions {
        out.push_str(&format!(".ic v({node})={}\n", format_value(*v)));
    }
    if let Some((step, stop)) = tran {
        out.push_str(&format!(
            ".tran {} {}\n",
            format_value(step),
            format_value(stop)
        ));
    }
    out.push_str(".end\n");
    out
}

fn format_waveform(w: &Waveform) -> String {
    match w {
        Waveform::Dc(v) => format!("DC {}", format_value(*v)),
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => format!(
            "PULSE({} {} {} {} {} {} {})",
            format_value(*v0),
            format_value(*v1),
            format_value(*delay),
            format_value(*rise),
            format_value(*fall),
            format_value(*width),
            format_value(*period)
        ),
        Waveform::Pwl(pts) => {
            let body: Vec<String> = pts
                .iter()
                .flat_map(|(t, v)| [format_value(*t), format_value(*v)])
                .collect();
            format!("PWL({})", body.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn models() -> HashMap<String, MosfetModel> {
        let tech = n10();
        let mut m = HashMap::new();
        m.insert("nmos".to_string(), MosfetModel::new(*tech.nmos()));
        m.insert("pmos".to_string(), MosfetModel::new(*tech.pmos()));
        m
    }

    #[test]
    fn parses_basic_deck() {
        let deck =
            "* rc divider\nR1 vdd mid 10k\nC1 mid 0 100f\nVDD vdd 0 DC 0.7\n.tran 1p 2n\n.end\n";
        let d = parse_deck(deck, &models()).unwrap();
        assert_eq!(d.title.as_deref(), Some("rc divider"));
        assert_eq!(d.netlist.elements().len(), 3);
        assert_eq!(d.tran, Some((1e-12, 2e-9)));
    }

    #[test]
    fn parses_pulse_and_pwl() {
        let deck = "* sources\nVWL wl 0 PULSE(0 0.7 100p 10p 10p 5n 10n)\nVP x 0 PWL(0 0 1n 1 2n 0.5)\nR1 wl 0 1k\nR2 x 0 1k\n.end\n";
        let d = parse_deck(deck, &models()).unwrap();
        match d.netlist.element("VWL").unwrap() {
            Element::VSource { waveform, .. } => {
                assert!((waveform.eval(3e-9) - 0.7).abs() < 1e-12);
            }
            _ => panic!("wrong element"),
        }
        match d.netlist.element("VP").unwrap() {
            Element::VSource { waveform, .. } => {
                assert!((waveform.eval(1.5e-9) - 0.75).abs() < 1e-12);
            }
            _ => panic!("wrong element"),
        }
    }

    #[test]
    fn parses_mosfet_with_model() {
        let deck = "* m\nM1 bl wl 0 nmos\nR1 bl 0 1k\n.end\n";
        let d = parse_deck(deck, &models()).unwrap();
        assert!(matches!(
            d.netlist.element("M1"),
            Some(Element::Mosfet { .. })
        ));
    }

    #[test]
    fn unknown_model_reports_line() {
        let deck = "* m\nM1 bl wl 0 exotic\n.end\n";
        match parse_deck(deck, &models()) {
            Err(SpiceError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("exotic"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn continuation_lines_join() {
        let deck = "* c\nVWL wl 0 PULSE(0 0.7\n+ 100p 10p 10p 5n 10n)\nR1 wl 0 1k\n.end\n";
        let d = parse_deck(deck, &models()).unwrap();
        assert_eq!(d.netlist.elements().len(), 2);
    }

    #[test]
    fn bare_value_source_is_dc() {
        let deck = "* d\nV1 a 0 0.7\nR1 a 0 1k\n.end\n";
        let d = parse_deck(deck, &models()).unwrap();
        match d.netlist.element("V1").unwrap() {
            Element::VSource { waveform, .. } => assert_eq!(waveform.eval(1.0), 0.7),
            _ => panic!(),
        }
    }

    #[test]
    fn ic_directive() {
        let deck = "* ic\nR1 bl 0 1k\nC1 bl 0 1f\n.ic v(bl)=0.7 v(blb)=0.7\n.end\n";
        let d = parse_deck(deck, &models()).unwrap();
        assert_eq!(d.initial_conditions.len(), 2);
        assert_eq!(d.initial_conditions[0], ("bl".to_string(), 0.7));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("* t\nR1 a 0\n.end\n", 2),
            ("* t\nR1 a 0 xyz\n.end\n", 2),
            ("* t\nQ1 a b c\n.end\n", 2),
            ("* t\n.noise foo\n.end\n", 2),
            ("* t\nV1 a 0 PULSE(1 2 3)\n.end\n", 2),
            ("+ orphan\n", 1),
        ];
        for (deck, want_line) in cases {
            match parse_deck(deck, &models()) {
                Err(SpiceError::Parse { line, .. }) => {
                    assert_eq!(line, want_line, "deck: {deck:?}")
                }
                other => panic!("expected parse error for {deck:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn cards_after_end_are_ignored() {
        let deck = "* t\nR1 a 0 1k\n.end\nR2 b 0 broken\n";
        assert!(parse_deck(deck, &models()).is_ok());
    }

    #[test]
    fn bad_directives_rejected() {
        // Decks written for the DC-sweep and AC analyses get a named error
        // on the directive's line, never a silent skip.
        for deck in [
            "* x\n.dc V1 0 1 0.1\n.end\n",
            "* x\n.DC V1 0 1\n.end\n",
            "* x\n.ac dec 10 1k 1meg\n.end\n",
            "* x\n.ac\n.end\n",
        ] {
            match parse_deck(deck, &models()) {
                Err(SpiceError::Parse { line: 2, message }) => {
                    assert!(
                        message.contains("unsupported directive"),
                        "{deck:?}: {message}"
                    )
                }
                other => panic!("expected a line-2 parse error for {deck:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn roundtrip_through_writer() {
        let deck_text = "* roundtrip\nR1 vdd mid 10k\nC1 mid 0 100f\nVDD vdd 0 DC 0.7\nVWL wl 0 PULSE(0 0.7 100p 10p 10p 5n 10n)\nM1 mid wl 0 nmos\n.ic v(mid)=0.7\n.tran 1p 2n\n.end\n";
        let d = parse_deck(deck_text, &models()).unwrap();
        let emitted = write_deck(&d.netlist, "roundtrip", d.tran, &d.initial_conditions);
        let d2 = parse_deck(&emitted, &models()).unwrap();
        assert_eq!(d.netlist.elements().len(), d2.netlist.elements().len());
        assert_eq!(d.tran, d2.tran);
        assert_eq!(d.initial_conditions.len(), d2.initial_conditions.len());
        for (a, b) in d.initial_conditions.iter().zip(&d2.initial_conditions) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12, "{} vs {}", a.1, b.1);
        }
        // Waveform survives the roundtrip.
        match (
            d.netlist.element("VWL").unwrap(),
            d2.netlist.element("VWL").unwrap(),
        ) {
            (Element::VSource { waveform: w1, .. }, Element::VSource { waveform: w2, .. }) => {
                for t in [0.0, 105e-12, 1e-9, 6e-9] {
                    assert!((w1.eval(t) - w2.eval(t)).abs() < 1e-9);
                }
            }
            _ => panic!(),
        }
    }
}
